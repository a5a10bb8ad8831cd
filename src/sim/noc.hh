/**
 * @file
 * Sliced last-level cache behind a contended network-on-chip.
 *
 * §VI-B2 observes that ASP.NET applications become L3-latency bound as
 * core counts grow even though per-core LLC MPKI stays flat — the
 * extra stall time comes from contention at LLC slice ports and in the
 * NoC. This model reproduces that: the LLC is divided into
 * address-hashed slices shared by all cores, and each access pays a
 * queueing delay that grows with the aggregate access rate per slice
 * (an M/M/1-style rho/(1-rho) term).
 */

#ifndef NETCHAR_SIM_NOC_HH
#define NETCHAR_SIM_NOC_HH

#include <cstdint>
#include <span>
#include <vector>

#include "sim/cache.hh"
#include "sim/config.hh"

namespace netchar::sim
{

/** Tuning knobs for the contention model. */
struct NocParams
{
    /**
     * Effective service rate of one LLC slice / NoC stop in accesses
     * per cycle. Deliberately low: the "slice" stands in for the
     * shared mesh stop (directory + link bandwidth), which saturates
     * long before the SRAM port does.
     */
    double sliceServiceRate = 0.02;
    /** Cap on the queueing multiplier to keep the model stable. */
    double maxQueueCycles = 150.0;
    /** Smoothing window (accesses) for the arrival-rate estimate. */
    double rateSmoothing = 4096.0;
    /** Enable/disable contention entirely (ablation switch). */
    bool contentionEnabled = true;
};

/** Outcome of one LLC access through the NoC. */
struct LlcOutcome
{
    bool hit = false;
    bool evictedUnusedPrefetch = false;
    bool writeback = false;
    /** Total latency: base LLC latency + NoC queueing delay. */
    double latency = 0.0;
};

/** One range of an LLC preload: the lines of [base, base + bytes). */
struct LlcRange
{
    std::uint64_t base = 0;
    std::uint64_t bytes = 0;
};

/**
 * Shared sliced LLC. All cores of a Machine funnel their L2 misses
 * through one LlcNoc instance; slice selection hashes the line
 * address, mimicking Intel's slice hash.
 */
class LlcNoc
{
  public:
    /**
     * @param geometry Aggregate LLC geometry; capacity is split evenly
     *        across slices (must divide evenly).
     * @param slices Slice count.
     * @param base_latency Uncontended LLC hit latency in cycles.
     * @param params Contention model knobs.
     */
    LlcNoc(const CacheGeometry &geometry, unsigned slices,
           double base_latency, const NocParams &params = {});

    /**
     * One access from a core.
     *
     * @param addr Byte address.
     * @param is_write Marks the line dirty.
     * @param core_cycles The requesting core's current cycle count,
     *        used to estimate its access rate.
     */
    LlcOutcome access(std::uint64_t addr, bool is_write,
                      double core_cycles);

    /** Prefetch fill into the right slice. */
    CacheOutcome insertPrefetch(std::uint64_t addr);

    /**
     * Prefetch-fill every line of each range, in address order, one
     * range after another. Leaves the state the insertPrefetch() loop
     * over those lines would, but cheaper:
     *  - the lines of consecutive ranges under the LLC's line count
     *    are inserted a chunk at a time, one slice after another and
     *    runs of 2^kPreloadBucketShift sets ascending within a slice,
     *    each set seeing its lines in their original order. The chunk
     *    buffer is kept between calls and never outgrows
     *    kPreloadChunk lines.
     *  - a range of at least the line count costs O(capacity) set
     *    probes and writes, not one insert per line. Scratch space is
     *    one byte per set.
     */
    void preload(std::span<const LlcRange> ranges);

    /** preload() of the one range [base, base + bytes). */
    void preload(std::uint64_t base, std::uint64_t bytes)
    {
        const LlcRange range{base, bytes};
        preload(std::span(&range, 1));
    }

    /** Probe without state change. */
    bool contains(std::uint64_t addr) const;

    /** Drop all lines and rate state. */
    void reset();

    /** Total demand accesses across slices. */
    std::uint64_t accesses() const { return accesses_; }

    /** Total demand misses across slices. */
    std::uint64_t misses() const { return misses_; }

    /** Most recent queueing delay estimate in cycles (telemetry). */
    double lastQueueDelay() const { return lastQueueDelay_; }

    unsigned sliceCount() const
    {
        return static_cast<unsigned>(slices_.size());
    }

  private:
    /** Most lines preload() sorts at once. */
    static constexpr std::size_t kPreloadChunk = 16384;
    /** preload() sorts by runs of 2^this sets of one slice. */
    static constexpr unsigned kPreloadBucketShift = 4;

    std::size_t sliceFor(std::uint64_t addr) const;

    /** preload() of ranges under capacity, a sorted chunk at a time. */
    void preloadSorted(std::span<const LlcRange> ranges);

    /**
     * preload() of one range of at least the LLC's line count by set
     * writes. @return false, having changed nothing, if one of its
     * lines is resident (or the sets are too wide to count).
     */
    bool preloadWhole(const LlcRange &range);

    std::vector<Cache> slices_;
    double baseLatency_;
    NocParams params_;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    double smoothedRate_ = 0.0; ///< aggregate accesses per cycle
    double lastCycles_ = 0.0;
    double windowStartCycles_ = 0.0;
    std::uint64_t windowAccesses_ = 0;
    double lastQueueDelay_ = 0.0;
    /** Scratch of preloadSorted(): one chunk's line addresses in
     *  bucket order, and where each bucket starts. */
    std::vector<std::uint64_t> preloadLines_;
    std::vector<std::uint32_t> preloadStarts_;
};

} // namespace netchar::sim

#endif // NETCHAR_SIM_NOC_HH
