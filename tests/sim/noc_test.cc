#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/noc.hh"

using netchar::sim::CacheGeometry;
using netchar::sim::LlcNoc;
using netchar::sim::NocParams;

namespace
{

/** 1 MiB LLC over 4 slices. */
CacheGeometry
llcGeometry()
{
    return {1024 * 1024, 16, 64};
}

} // namespace

TEST(NocTest, GeometryValidation)
{
    EXPECT_THROW(LlcNoc(llcGeometry(), 0, 40.0), std::invalid_argument);
    EXPECT_THROW(LlcNoc({1000, 4, 64}, 3, 40.0), std::invalid_argument);
    LlcNoc ok(llcGeometry(), 4, 40.0);
    EXPECT_EQ(ok.sliceCount(), 4u);
}

TEST(NocTest, MissThenHit)
{
    LlcNoc llc(llcGeometry(), 4, 40.0);
    auto first = llc.access(0x10000, false, 100.0);
    EXPECT_FALSE(first.hit);
    auto second = llc.access(0x10000, false, 200.0);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(llc.accesses(), 2u);
    EXPECT_EQ(llc.misses(), 1u);
}

TEST(NocTest, BaseLatencyWithoutContention)
{
    NocParams params;
    params.contentionEnabled = false;
    LlcNoc llc(llcGeometry(), 4, 40.0, params);
    auto out = llc.access(0x10000, false, 100.0);
    EXPECT_DOUBLE_EQ(out.latency, 40.0);
}

TEST(NocTest, ContentionGrowsWithAggregateRate)
{
    // More cores means more accesses per wall-clock cycle; the queue
    // delay must grow with that aggregate rate.
    auto run = [](unsigned cores) {
        NocParams params;
        params.rateSmoothing = 64.0;
        LlcNoc llc(llcGeometry(), 4, 40.0, params);
        double cycles = 0.0;
        double total_latency = 0.0;
        const int n = 4096;
        for (int i = 0; i < n; ++i) {
            // Each wall-clock window of 400 cycles carries one access
            // per active core.
            cycles += 400.0 / cores;
            total_latency += llc
                .access(static_cast<std::uint64_t>(i) * 64, false, cycles)
                .latency;
        }
        return total_latency / n;
    };
    const double lat1 = run(1);
    const double lat8 = run(8);
    const double lat16 = run(16);
    EXPECT_GT(lat8, lat1);
    EXPECT_GT(lat16, lat8);
}

TEST(NocTest, QueueDelayCapped)
{
    NocParams params;
    params.rateSmoothing = 32.0;
    params.maxQueueCycles = 100.0;
    LlcNoc llc(llcGeometry(), 4, 40.0, params);
    double cycles = 0.0;
    for (int i = 0; i < 10000; ++i) {
        cycles += 1.0; // saturating rate
        llc.access(static_cast<std::uint64_t>(i) * 64, false, cycles);
    }
    EXPECT_LE(llc.lastQueueDelay(), 100.0);
}

TEST(NocTest, SlicesPartitionAddressSpace)
{
    LlcNoc llc(llcGeometry(), 4, 40.0);
    // Whatever the hash, a line inserted must be found again.
    for (std::uint64_t a = 0; a < 64 * 1024; a += 64)
        llc.access(a, false, 1.0);
    int found = 0;
    for (std::uint64_t a = 0; a < 64 * 1024; a += 64)
        if (llc.contains(a))
            ++found;
    EXPECT_EQ(found, 1024); // 64 KiB working set fits in 1 MiB
}

TEST(NocTest, PrefetchInsertLandsInRightSlice)
{
    LlcNoc llc(llcGeometry(), 4, 40.0);
    llc.insertPrefetch(0xABC0);
    EXPECT_TRUE(llc.contains(0xABC0));
    auto out = llc.access(0xABC0, false, 1.0);
    EXPECT_TRUE(out.hit);
}

TEST(NocTest, WideLineStaysInOneSlice)
{
    // 128 B lines: both 64 B halves of a line must reach the slice
    // that holds it, whatever the slice hash.
    LlcNoc llc({1024 * 1024, 16, 128}, 8, 40.0);
    int found = 0;
    for (std::uint64_t i = 0; i < 64; ++i) {
        const std::uint64_t a = 0x10000000 + i * 128 * 37;
        llc.insertPrefetch(a);
        if (llc.contains(a + 64) && llc.contains(a + 127))
            ++found;
    }
    EXPECT_EQ(found, 64);
    EXPECT_TRUE(llc.access(0x10000000 + 64, false, 1.0).hit);
}

TEST(NocTest, ResetClearsEverything)
{
    LlcNoc llc(llcGeometry(), 4, 40.0);
    llc.access(0x1000, false, 1.0);
    llc.reset();
    EXPECT_EQ(llc.accesses(), 0u);
    EXPECT_FALSE(llc.contains(0x1000));
}

TEST(NocTest, WritebackReportedOnDirtyEviction)
{
    // Tiny LLC to force evictions: 16 KiB, 4 slices, 4-way.
    LlcNoc llc({16 * 1024, 4, 64}, 4, 40.0);
    // Dirty-fill far more lines than capacity.
    bool saw_writeback = false;
    for (std::uint64_t a = 0; a < 256 * 1024; a += 64) {
        auto out = llc.access(a, true, 1.0);
        saw_writeback = saw_writeback || out.writeback;
    }
    EXPECT_TRUE(saw_writeback);
}
