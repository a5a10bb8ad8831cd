/**
 * @file
 * A batch LLC preload against the per-line insertPrefetch() loop it
 * stands for, on every machine's LLC. The batch is shaped like the
 * first run of a managed workload: a range at capacity (the two-pass
 * bulk path), a heap-sized range, kernel code and data, 900 small,
 * partly overlapping method ranges and a range already resident. A
 * second batch on the same LLCs starts with a range above capacity
 * whose tail is resident, which the bulk path hands back to the
 * sorted one. After each, every line of every range must agree on
 * residency, then one seeded stream of accesses, prefetch inserts and
 * probes must see the same outcomes from both.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "sim/config.hh"
#include "sim/noc.hh"
#include "stats/rng.hh"

namespace netchar::sim
{
namespace
{

constexpr std::uint64_t kLine = 64;

void
insertLoop(LlcNoc &llc, std::span<const LlcRange> ranges)
{
    for (const LlcRange &r : ranges)
        for (std::uint64_t a = r.base & ~(kLine - 1); a < r.base + r.bytes;
             a += kLine)
            llc.insertPrefetch(a);
}

void
expectSameResidency(const LlcNoc &batch, const LlcNoc &loop,
                    std::span<const LlcRange> ranges)
{
    for (const LlcRange &r : ranges)
        for (std::uint64_t a = r.base & ~(kLine - 1); a < r.base + r.bytes;
             a += kLine)
            ASSERT_EQ(batch.contains(a), loop.contains(a)) << "addr " << a;
}

/** The same seeded stream through both LLCs; outcomes must agree. */
void
expectSameStream(LlcNoc &batch, LlcNoc &loop,
                 const std::vector<std::uint64_t> &lines, std::uint64_t seed)
{
    stats::Rng s(seed);
    for (int op = 0; op < 32000; ++op) {
        const std::uint64_t addr =
            lines[s.below(lines.size())] * kLine + s.below(kLine);
        const std::uint64_t kind = s.below(100);
        SCOPED_TRACE(::testing::Message()
                     << "op " << op << " kind " << kind << " addr "
                     << addr);
        if (kind < 60) {
            const bool write = kind >= 40;
            const double cycles = 10.0 * op;
            const LlcOutcome got = batch.access(addr, write, cycles);
            const LlcOutcome want = loop.access(addr, write, cycles);
            ASSERT_EQ(got.hit, want.hit);
            ASSERT_EQ(got.evictedUnusedPrefetch,
                      want.evictedUnusedPrefetch);
            ASSERT_EQ(got.writeback, want.writeback);
            ASSERT_EQ(got.latency, want.latency);
        } else if (kind < 85) {
            const CacheOutcome got = batch.insertPrefetch(addr);
            const CacheOutcome want = loop.insertPrefetch(addr);
            ASSERT_EQ(got.wasPresent, want.wasPresent);
            ASSERT_EQ(got.evictedUnusedPrefetch,
                      want.evictedUnusedPrefetch);
            ASSERT_EQ(got.writeback, want.writeback);
        } else {
            ASSERT_EQ(batch.contains(addr), loop.contains(addr));
        }
    }
}

/**
 * Stream lines: some of every range, and lines on a few set indices
 * of every slice, so those sets evict in LRU order.
 */
std::vector<std::uint64_t>
streamLines(std::span<const LlcRange> ranges, std::uint64_t sets,
            unsigned slices, stats::Rng &s)
{
    std::vector<std::uint64_t> lines;
    for (const LlcRange &r : ranges) {
        const std::uint64_t first = r.base / kLine;
        const std::uint64_t count = (r.base + r.bytes + kLine - 1) / kLine - first;
        for (int i = 0; i < 8; ++i)
            lines.push_back(first + s.below(count));
    }
    for (int g = 0; g < 8; ++g) {
        const std::uint64_t line = lines[s.below(lines.size())];
        for (std::uint64_t k = 1; k <= 16 * slices; ++k)
            lines.push_back(line + k * sets);
    }
    return lines;
}

void
checkBatch(const MachineConfig &cfg, std::uint64_t seed)
{
    SCOPED_TRACE(::testing::Message() << "llc " << cfg.name);
    const std::uint64_t capacity = cfg.llc.sizeBytes / kLine;
    const std::uint64_t sets =
        capacity / cfg.llcSlices / cfg.llc.associativity;
    LlcNoc batch(cfg.llc, cfg.llcSlices, cfg.pipe.llcLatency);
    LlcNoc loop(cfg.llc, cfg.llcSlices, cfg.pipe.llcLatency);
    stats::Rng s(seed);

    // Already resident before the batch: dirty, clean and prefetched.
    const LlcRange resident{0x0000'2000'0000'0000ULL, 4096 * kLine};
    for (std::uint64_t i = 0; i < 3 * 4096; ++i) {
        const std::uint64_t addr = resident.base + s.below(4096) * kLine;
        const std::uint64_t kind = s.below(3);
        if (kind == 2) {
            batch.insertPrefetch(addr);
            loop.insertPrefetch(addr);
        } else {
            batch.access(addr, kind == 1, 1.0);
            loop.access(addr, kind == 1, 1.0);
        }
    }

    const LlcRange heap{0x0000'0100'0000'0018ULL, capacity / 3 * kLine};
    std::vector<LlcRange> ranges = {
        {0x0000'0010'0000'0000ULL, capacity * kLine}, // bulk path
        heap,
        {0x0000'7FF0'0000'0000ULL, 1536 * 1024}, // kernel code
        {0x0000'7FF8'0000'0000ULL, 2 * 1024 * 1024}, // kernel data
    };
    std::uint64_t code = 0x0000'7F00'0000'0040ULL;
    for (int m = 0; m < 900; ++m) {
        const std::uint64_t bytes = 16 + s.below(3000);
        ranges.push_back({code, bytes});
        code += bytes - (s.below(4) == 0 ? s.below(bytes) : 0);
    }
    ranges.push_back(resident);

    batch.preload(ranges);
    insertLoop(loop, ranges);
    expectSameResidency(batch, loop, ranges);
    if (::testing::Test::HasFatalFailure())
        return;
    expectSameStream(batch, loop,
                     streamLines(ranges, sets, cfg.llcSlices, s), s.next());
    if (::testing::Test::HasFatalFailure())
        return;

    // Above capacity, ending on the heap's resident lines, then the
    // first methods again (all resident or evicted by now).
    std::vector<LlcRange> again = {
        {heap.base - capacity * kLine, capacity * kLine + heap.bytes},
    };
    again.insert(again.end(), ranges.begin() + 4, ranges.begin() + 104);
    batch.preload(again);
    insertLoop(loop, again);
    expectSameResidency(batch, loop, again);
    expectSameResidency(batch, loop, ranges);
    if (::testing::Test::HasFatalFailure())
        return;
    expectSameStream(batch, loop,
                     streamLines(again, sets, cfg.llcSlices, s), s.next());
}

TEST(LlcPreloadBatch, MatchesThePerLineInsertLoop)
{
    checkBatch(MachineConfig::intelCoreI99980Xe(), 70); // 11 x 18
    checkBatch(MachineConfig::intelXeonE52620V4(), 71); // 20 x 8
    checkBatch(MachineConfig::armServer(), 72);         // 16 x 8
}

TEST(LlcPreloadBatch, EmptyBatchAndEmptyRangesChangeNothing)
{
    const MachineConfig cfg = MachineConfig::intelCoreI99980Xe();
    LlcNoc llc(cfg.llc, cfg.llcSlices, cfg.pipe.llcLatency);
    llc.preload(std::span<const LlcRange>{});
    const LlcRange empty[] = {{0x1000, 0}, {0x2000, 0}};
    llc.preload(empty);
    EXPECT_FALSE(llc.contains(0x1000));
    EXPECT_FALSE(llc.contains(0x2000));
    // An unaligned empty range still names the line it starts in, as
    // the per-line loop does.
    const LlcRange unaligned[] = {{0x3010, 0}};
    llc.preload(unaligned);
    EXPECT_TRUE(llc.contains(0x3000));
}

} // namespace
} // namespace netchar::sim
