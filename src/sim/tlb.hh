/**
 * @file
 * Set-associative TLB model with an optional unified second level.
 *
 * Mirrors the structures the paper's metrics 12-14 measure: dedicated
 * first-level I-TLB and D-TLB plus a shared second-level (S)TLB, with
 * page-walk latency charged on a full miss.
 */

#ifndef NETCHAR_SIM_TLB_HH
#define NETCHAR_SIM_TLB_HH

#include <cstdint>

#include "sim/config.hh"
#include "sim/lru_sets.hh"

namespace netchar::sim
{

/** Outcome of one TLB lookup. */
struct TlbOutcome
{
    /** First-level hit. */
    bool hit = false;
    /** Missed L1 TLB but hit the second level. */
    bool stlbHit = false;
};

/**
 * One TLB level: set-associative over virtual page numbers, true LRU.
 */
class Tlb
{
  public:
    /**
     * @param geometry Entry count, associativity and page size. Entry
     *        count must be a multiple of associativity and the page
     *        size a power of two of at least 2 bytes (throws
     *        std::invalid_argument otherwise).
     */
    explicit Tlb(const TlbGeometry &geometry);

    /** Lookup a byte address; fills the entry on miss. */
    bool access(std::uint64_t addr);

    /** Probe without state change. */
    bool contains(std::uint64_t addr) const;

    /** Pre-install a translation (JIT-hint warmup path). */
    void install(std::uint64_t addr);

    /** Drop all entries. */
    void invalidateAll();

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }

  private:
    std::uint64_t vpnFor(std::uint64_t addr) const
    {
        return addr >> pageShift_;
    }

    /** log2 of the page size: page numbers are `addr >> pageShift_`. */
    unsigned pageShift_;
    LruSets<> entries_;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * Two-level TLB hierarchy: a dedicated L1 TLB backed by an optional
 * shared STLB. Both levels fill on a walk.
 */
class TlbHierarchy
{
  public:
    /**
     * @param l1 First-level geometry.
     * @param stlb Second-level geometry; entries == 0 disables it.
     */
    TlbHierarchy(const TlbGeometry &l1, const TlbGeometry &stlb);

    /** Translate; fills both levels as needed. */
    TlbOutcome access(std::uint64_t addr);

    /** Pre-install into both levels (JIT-hint warmup path). */
    void install(std::uint64_t addr);

    /** Drop all entries in both levels. */
    void invalidateAll();

    /** First-level miss count (what perf's *tlb_misses report). */
    std::uint64_t l1Misses() const { return l1_.misses(); }

    /** Full misses that required a page walk. */
    std::uint64_t walks() const { return walks_; }

  private:
    Tlb l1_;
    bool hasStlb_;
    Tlb stlb_;
    std::uint64_t walks_ = 0;
};

} // namespace netchar::sim

#endif // NETCHAR_SIM_TLB_HH
