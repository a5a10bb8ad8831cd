#include "sim/noc.hh"

#include <algorithm>
#include <stdexcept>

namespace netchar::sim
{

LlcNoc::LlcNoc(const CacheGeometry &geometry, unsigned slices,
               double base_latency, const NocParams &params)
    : baseLatency_(base_latency), params_(params)
{
    if (slices == 0)
        throw std::invalid_argument("LlcNoc: zero slices");
    if (geometry.sizeBytes % slices != 0)
        throw std::invalid_argument(
            "LlcNoc: capacity does not divide across slices");
    CacheGeometry slice_geom = geometry;
    slice_geom.sizeBytes = geometry.sizeBytes / slices;
    slices_.reserve(slices);
    for (unsigned i = 0; i < slices; ++i)
        slices_.emplace_back(slice_geom, "llc-slice");
}

std::size_t
LlcNoc::sliceFor(std::uint64_t addr) const
{
    // Cheap line-address hash standing in for Intel's slice hash. It
    // hashes the slices' own line number, so a line's bytes share one
    // slice.
    std::uint64_t line = slices_.front().lineFor(addr);
    line ^= line >> 17;
    line *= 0x9E3779B97F4A7C15ULL;
    line ^= line >> 29;
    return static_cast<std::size_t>(line % slices_.size());
}

LlcOutcome
LlcNoc::access(std::uint64_t addr, bool is_write, double core_cycles)
{
    LlcOutcome out;
    ++accesses_;
    ++windowAccesses_;

    // Aggregate arrival-rate estimate: total accesses (all cores)
    // divided by wall-clock progress, where wall clock is the max
    // core-cycle count observed (cores run concurrently, so the
    // furthest core's clock is the wall).
    lastCycles_ = std::max(lastCycles_, core_cycles);
    if (windowAccesses_ >= params_.rateSmoothing &&
        lastCycles_ > windowStartCycles_) {
        const double rate = static_cast<double>(windowAccesses_) /
            (lastCycles_ - windowStartCycles_);
        smoothedRate_ = smoothedRate_ == 0.0
            ? rate
            : 0.7 * smoothedRate_ + 0.3 * rate;
        windowAccesses_ = 0;
        windowStartCycles_ = lastCycles_;
    }

    double queue_delay = 0.0;
    if (params_.contentionEnabled && smoothedRate_ > 0.0) {
        // Arrival rate per NoC stop, M/M/1 waiting time.
        const double lambda = smoothedRate_ /
            static_cast<double>(slices_.size());
        const double rho =
            std::min(lambda / params_.sliceServiceRate, 0.98);
        queue_delay = std::min(
            baseLatency_ * rho / (1.0 - rho), params_.maxQueueCycles);
    }
    lastQueueDelay_ = queue_delay;

    const auto cache_out =
        slices_[sliceFor(addr)].access(addr, is_write);
    out.hit = cache_out.hit;
    out.evictedUnusedPrefetch = cache_out.evictedUnusedPrefetch;
    out.writeback = cache_out.writeback;
    out.latency = baseLatency_ + queue_delay;
    if (!out.hit)
        ++misses_;
    return out;
}

CacheOutcome
LlcNoc::insertPrefetch(std::uint64_t addr)
{
    return slices_[sliceFor(addr)].insertPrefetch(addr);
}

void
LlcNoc::preload(std::span<const LlcRange> ranges)
{
    const std::uint64_t line = slices_.front().lineBytes();
    const std::uint64_t capacity = slices_.size() *
        slices_.front().numSets() * slices_.front().ways();
    std::size_t sorted = 0; // ranges [sorted, i) wait to be sorted in
    for (std::size_t i = 0; i < ranges.size(); ++i) {
        const std::uint64_t first = ranges[i].base & ~(line - 1);
        const std::uint64_t end = ranges[i].base + ranges[i].bytes;
        if (end <= first || (end - first + line - 1) / line < capacity)
            continue;
        preloadSorted(ranges.subspan(sorted, i - sorted));
        if (!preloadWhole(ranges[i]))
            preloadSorted(ranges.subspan(i, 1));
        sorted = i + 1;
    }
    preloadSorted(ranges.subspan(sorted));
}

void
LlcNoc::preloadSorted(std::span<const LlcRange> ranges)
{
    // A stable counting sort of each chunk by bucket: the sets of a
    // bucket are consecutive in one slice. Inserts into different
    // sets commute and every set keeps its lines' order, so this
    // leaves what inserting them in address order would; walking
    // the tag and entry arrays upwards is what makes it cheaper.
    const std::uint64_t line = slices_.front().lineBytes();
    const std::size_t buckets =
        ((slices_.front().numSets() - 1) >> kPreloadBucketShift) + 1;
    const auto bucketOf = [&](std::uint64_t addr) {
        const std::size_t slice = sliceFor(addr);
        return slice * buckets +
            (slices_[slice].setOf(addr) >> kPreloadBucketShift);
    };
    // Visits up to `limit` lines from line `a` of range `r` on, in
    // order, and leaves (r, a) after the last one.
    const auto walk = [&](std::size_t &r, std::uint64_t &a,
                          std::size_t limit, auto &&visit) {
        std::size_t n = 0;
        while (r < ranges.size() && n < limit) {
            const std::uint64_t end = ranges[r].base + ranges[r].bytes;
            for (; a < end && n < limit; a += line, ++n)
                visit(a);
            if (a >= end && ++r < ranges.size())
                a = ranges[r].base & ~(line - 1);
        }
        return n;
    };

    std::size_t r = 0;
    std::uint64_t a = ranges.empty() ? 0 : ranges[0].base & ~(line - 1);
    while (r < ranges.size()) {
        std::size_t from_r = r;
        std::uint64_t from_a = a;
        preloadStarts_.assign(slices_.size() * buckets + 1, 0);
        const std::size_t n = walk(r, a, kPreloadChunk, [&](std::uint64_t x) {
            ++preloadStarts_[bucketOf(x) + 1];
        });
        for (std::size_t b = 1; b < preloadStarts_.size(); ++b)
            preloadStarts_[b] += preloadStarts_[b - 1];
        preloadLines_.resize(n);
        walk(from_r, from_a, n, [&](std::uint64_t x) {
            preloadLines_[preloadStarts_[bucketOf(x)]++] = x;
        });
        // preloadStarts_[b] is now where bucket b's lines end.
        std::size_t k = 0;
        for (std::size_t slice = 0; slice < slices_.size(); ++slice)
            for (const std::size_t last =
                     preloadStarts_[(slice + 1) * buckets - 1];
                 k < last; ++k)
                slices_[slice].insertPrefetch(preloadLines_[k]);
    }
}

bool
LlcNoc::preloadWhole(const LlcRange &range)
{
    const std::uint64_t line = slices_.front().lineBytes();
    const std::uint64_t first = range.base & ~(line - 1);
    const std::uint64_t count =
        (range.base + range.bytes - first + line - 1) / line;
    // Per-set state byte: the lines kept so far in pass 1; in pass 2,
    // kWriting | the ways of a full set still to write.
    constexpr std::uint8_t kWriting = 0x80;
    const std::size_t sets = slices_.front().numSets();
    const std::size_t ways = slices_.front().ways();
    if (ways >= kWriting)
        return false;

    // Insert-only fills leave a set holding the last `ways` distinct
    // lines mapped to it, oldest first, if none of them was resident
    // before (an insert of a resident line does not refresh it). Pass
    // 1 walks backwards and counts those lines per set until every
    // set is full; a resident one sends the whole range back.
    std::vector<std::uint8_t> kept(slices_.size() * sets);
    std::size_t unfilled = kept.size();
    std::uint64_t stop = count; // pass 1 walked lines [stop, count)
    while (stop > 0 && unfilled > 0) {
        const std::uint64_t addr = first + --stop * line;
        const std::size_t slice = sliceFor(addr);
        std::uint8_t &k = kept[slice * sets + slices_[slice].setOf(addr)];
        if (k == ways)
            continue;
        if (slices_[slice].contains(addr))
            return false;
        if (++k == ways)
            --unfilled;
    }

    // Pass 2 walks the same lines backwards and writes each full set,
    // newest line in its last way. Stamps only order the ways of one
    // set, so every set of a slice shares one block of `ways`.
    std::vector<std::uint64_t> stamps(slices_.size());
    for (std::size_t s = 0; s < slices_.size(); ++s)
        stamps[s] = slices_[s].reserveStamps(ways);
    for (std::uint64_t i = count; i-- > stop;) {
        const std::uint64_t addr = first + i * line;
        const std::size_t slice = sliceFor(addr);
        std::uint8_t &k = kept[slice * sets + slices_[slice].setOf(addr)];
        if (k < ways || k == kWriting)
            continue; // a set the range never filled, or written
        if (k == ways)
            k = static_cast<std::uint8_t>(kWriting + ways);
        const std::size_t way = --k - kWriting;
        slices_[slice].writePrefetched(way, addr, stamps[slice] + way);
    }

    // Sets the range never filled take their few lines in order.
    if (unfilled > 0)
        for (std::uint64_t i = 0; i < count; ++i) {
            const std::uint64_t addr = first + i * line;
            const std::size_t slice = sliceFor(addr);
            if (kept[slice * sets + slices_[slice].setOf(addr)] < ways)
                slices_[slice].insertPrefetch(addr);
        }
    return true;
}

bool
LlcNoc::contains(std::uint64_t addr) const
{
    return slices_[sliceFor(addr)].contains(addr);
}

void
LlcNoc::reset()
{
    for (auto &slice : slices_)
        slice.invalidateAll();
    accesses_ = 0;
    misses_ = 0;
    smoothedRate_ = 0.0;
    lastCycles_ = 0.0;
    windowStartCycles_ = 0.0;
    windowAccesses_ = 0;
    lastQueueDelay_ = 0.0;
}

} // namespace netchar::sim
