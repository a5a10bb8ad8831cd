/**
 * @file
 * Set-associative cache model with true-LRU replacement and prefetch
 * tracking.
 *
 * The model is tag-only (no data), which is all a characterization
 * study needs: hit/miss outcomes, eviction of unused prefetches, and
 * writeback generation for bandwidth accounting.
 */

#ifndef NETCHAR_SIM_CACHE_HH
#define NETCHAR_SIM_CACHE_HH

#include <cstdint>
#include <string>

#include "sim/config.hh"
#include "sim/lru_sets.hh"

namespace netchar::sim
{

/** Outcome of one cache access or prefetch insertion. */
struct CacheOutcome
{
    /** Demand access hit. */
    bool hit = false;
    /** The line hit was brought in by the prefetcher (first use). */
    bool hitOnPrefetch = false;
    /** A prefetched-but-never-used line was evicted by this access. */
    bool evictedUnusedPrefetch = false;
    /** A dirty line was written back by this access. */
    bool writeback = false;
    /** Prefetch insertion only: the line was resident; nothing moved. */
    bool wasPresent = false;
};

/**
 * One level of a tag-only set-associative cache.
 *
 * Addresses are byte addresses; the cache extracts line and set bits
 * itself. Replacement is true LRU within a set.
 */
class Cache
{
  public:
    /**
     * @param geometry Size/associativity/line size. The line size
     *        must be a power of two of at least 2 bytes (line number
     *        ~0 is the tag store's reserved tag) and the size a
     *        multiple of associativity x line bytes (throws
     *        std::invalid_argument otherwise).
     * @param name Label used in error messages.
     */
    explicit Cache(const CacheGeometry &geometry,
                   std::string name = "cache");

    /**
     * Demand access: probe, update LRU, allocate on miss.
     *
     * @param addr Byte address.
     * @param is_write Marks the line dirty on hit or fill.
     * @return Hit/miss plus prefetch/writeback side effects.
     */
    CacheOutcome access(std::uint64_t addr, bool is_write);

    /**
     * Prefetch insertion: allocate the line (if absent) marked as
     * unused-prefetch. Does not update hit statistics.
     *
     * @return Outcome with evictedUnusedPrefetch/writeback set, or
     *         with only wasPresent set when the line was resident.
     */
    CacheOutcome insertPrefetch(std::uint64_t addr)
    {
        const std::uint64_t line = lineFor(addr);
        if (lines_.find(line) != nullptr) {
            CacheOutcome out;
            out.wasPresent = true; // nothing to do
            return out;
        }
        return fill(line, {false, true});
    }

    /** Probe without any state change. */
    bool contains(std::uint64_t addr) const;

    /** Drop all lines (machine reset). */
    void invalidateAll();

    /** Number of demand accesses so far. */
    std::uint64_t accesses() const { return accesses_; }

    /** Number of demand misses so far. */
    std::uint64_t misses() const { return misses_; }

    /** Number of sets (geometry introspection for tests). */
    std::size_t numSets() const { return lines_.sets(); }

    /** Ways per set. */
    std::size_t ways() const { return lines_.ways(); }

    /** Line size in bytes. */
    unsigned lineBytes() const { return 1u << lineShift_; }

    /** Number of the line holding `addr`. */
    std::uint64_t lineFor(std::uint64_t addr) const
    {
        return addr >> lineShift_;
    }

    /** The set the line holding `addr` maps to. */
    std::size_t setOf(std::uint64_t addr) const
    {
        return lines_.setIndex(lineFor(addr));
    }

    /**
     * Bulk-fill primitives (LlcNoc::preload): reserve stamps, then
     * write the line holding `addr`, clean and unused-prefetched, into
     * one way of its set. See LruSets::reserveStamps and write.
     */
    std::uint64_t reserveStamps(std::uint64_t n)
    {
        return lines_.reserveStamps(n);
    }

    void writePrefetched(std::size_t way, std::uint64_t addr,
                         std::uint64_t stamp)
    {
        lines_.write(setOf(addr), way, lineFor(addr), stamp,
                     {false, true});
    }

  private:
    /** No default member initializers: see LruSets::Entry. */
    struct LineState
    {
        bool dirty;
        bool prefetched;
    };

    /** Fill a missing line; reports what the evicted line leaves. */
    CacheOutcome fill(std::uint64_t line, LineState state)
    {
        CacheOutcome out;
        auto &victim = lines_.victim(line);
        if (lines_.occupied(victim)) {
            out.evictedUnusedPrefetch = victim.data.prefetched;
            out.writeback = victim.data.dirty;
        }
        lines_.stamp(victim, line, state);
        return out;
    }

    /** log2 of the line size: line numbers are `addr >> lineShift_`. */
    unsigned lineShift_;
    LruSets<LineState> lines_;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace netchar::sim

#endif // NETCHAR_SIM_CACHE_HH
