/**
 * @file
 * Stream prefetcher with a configurable page-boundary policy.
 *
 * §VII-A1 of the paper hinges on a property of real hardware stream
 * prefetchers: they do not prefetch across 4 KiB page boundaries, so
 * freshly JITed code pages always start cold. The `crossPageHint`
 * switch lets a stream run on past the boundary. The paper's proposed
 * ISA hook for new code pages is modelled separately, by
 * `RunOptions::jitHint` and `Core::onJitPage`, which is what
 * `bench_ablation_jit_prefetch` sets.
 */

#ifndef NETCHAR_SIM_PREFETCH_HH
#define NETCHAR_SIM_PREFETCH_HH

#include <cstdint>
#include <vector>

#include "sim/lru_sets.hh"

namespace netchar::sim
{

/** Tuning knobs for StreamPrefetcher. */
struct PrefetcherParams
{
    /** Number of concurrently tracked streams. */
    unsigned streams = 16;
    /** Lines fetched ahead once a stream is confirmed. */
    unsigned degree = 2;
    /** Accesses on a stream required before prefetching starts. */
    unsigned trainThreshold = 2;
    /** Allow prefetches to cross page boundaries. */
    bool crossPageHint = false;
    /** Page size used for the boundary check; at least 2 bytes. */
    std::uint64_t pageBytes = 4096;
    /** Cache line size (prefetch granularity). */
    unsigned lineBytes = 64;
};

/**
 * Classic per-page ascending/descending stream prefetcher.
 *
 * observe() is called with every demand access (hit or miss); it
 * returns the list of line addresses to prefetch, already filtered by
 * the page-boundary policy.
 */
class StreamPrefetcher
{
  public:
    explicit StreamPrefetcher(const PrefetcherParams &params = {});

    /**
     * Train on a demand access and emit prefetch candidates.
     *
     * @param addr Byte address of the demand access.
     * @return Byte addresses (line-aligned) to prefetch; empty until
     *         the stream is trained.
     */
    std::vector<std::uint64_t> observe(std::uint64_t addr);

    /** Forget all streams. */
    void reset();

    /** Parameters in use (tests/ablation reporting). */
    const PrefetcherParams &params() const { return params_; }

  private:
    /** Per-page stream state; the table is tagged by page number. */
    struct Stream
    {
        std::uint64_t lastLine = 0;
        int direction = 0;     ///< +1 ascending, -1 descending
        unsigned confidence = 0;
    };

    PrefetcherParams params_;
    LruSets<Stream> streams_;
};

} // namespace netchar::sim

#endif // NETCHAR_SIM_PREFETCH_HH
