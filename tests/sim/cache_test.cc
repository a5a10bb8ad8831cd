#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/cache.hh"

using netchar::sim::Cache;
using netchar::sim::CacheGeometry;

namespace
{

/** 4 KiB, 4-way, 64 B lines -> 16 sets. */
CacheGeometry
smallGeometry()
{
    return {4 * 1024, 4, 64};
}

} // namespace

TEST(CacheTest, GeometryValidation)
{
    EXPECT_THROW(Cache({0, 4, 64}), std::invalid_argument);
    EXPECT_THROW(Cache({4096, 0, 64}), std::invalid_argument);
    EXPECT_THROW(Cache({4096, 4, 0}), std::invalid_argument);
    EXPECT_THROW(Cache({1000, 4, 64}), std::invalid_argument);
    Cache ok(smallGeometry());
    EXPECT_EQ(ok.numSets(), 16u);
    EXPECT_EQ(ok.lineBytes(), 64u);
}

TEST(CacheTest, RejectsNonPowerOfTwoLine)
{
    // Line numbers are shifts, so a 96 B line cannot be modelled,
    // even in a geometry whose size is a multiple of ways x line.
    EXPECT_THROW(Cache({384, 4, 96}), std::invalid_argument);
    EXPECT_THROW(Cache({96 * 4 * 16, 4, 96}), std::invalid_argument);
    EXPECT_EQ(Cache({512, 4, 128}).lineBytes(), 128u);
}

TEST(CacheTest, ColdMissThenHit)
{
    Cache c(smallGeometry());
    auto first = c.access(0x1000, false);
    EXPECT_FALSE(first.hit);
    auto second = c.access(0x1000, false);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(c.accesses(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(CacheTest, SameLineDifferentBytesHit)
{
    Cache c(smallGeometry());
    c.access(0x1000, false);
    EXPECT_TRUE(c.access(0x103F, false).hit);
    EXPECT_FALSE(c.access(0x1040, false).hit); // next line
}

TEST(CacheTest, LruEvictionOrder)
{
    Cache c(smallGeometry());
    // 16 sets x 64 B: addresses 64*16 = 1024 apart map to one set.
    const std::uint64_t stride = 1024;
    for (int i = 0; i < 4; ++i)
        c.access(stride * static_cast<std::uint64_t>(i), false);
    // Touch line 0 so line 1 becomes LRU.
    c.access(0, false);
    // A 5th distinct line evicts line 1 (LRU), not line 0.
    c.access(stride * 4, false);
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(stride));
}

TEST(CacheTest, WritebackOnDirtyEviction)
{
    Cache c(smallGeometry());
    const std::uint64_t stride = 1024;
    c.access(0, true); // dirty
    for (int i = 1; i < 4; ++i)
        c.access(stride * static_cast<std::uint64_t>(i), false);
    auto out = c.access(stride * 4, false); // evicts dirty line 0
    EXPECT_TRUE(out.writeback);
}

TEST(CacheTest, CleanEvictionNoWriteback)
{
    Cache c(smallGeometry());
    const std::uint64_t stride = 1024;
    for (int i = 0; i < 5; ++i) {
        auto out =
            c.access(stride * static_cast<std::uint64_t>(i), false);
        EXPECT_FALSE(out.writeback);
    }
}

TEST(CacheTest, PrefetchInsertAndFirstUse)
{
    Cache c(smallGeometry());
    c.insertPrefetch(0x2000);
    EXPECT_TRUE(c.contains(0x2000));
    auto out = c.access(0x2000, false);
    EXPECT_TRUE(out.hit);
    EXPECT_TRUE(out.hitOnPrefetch);
    // Second use: no longer flagged as a prefetch hit.
    EXPECT_FALSE(c.access(0x2000, false).hitOnPrefetch);
}

TEST(CacheTest, UnusedPrefetchEvictionReported)
{
    Cache c(smallGeometry());
    const std::uint64_t stride = 1024;
    c.insertPrefetch(0); // never used
    for (int i = 1; i < 4; ++i)
        c.access(stride * static_cast<std::uint64_t>(i), false);
    auto out = c.access(stride * 4, false);
    EXPECT_TRUE(out.evictedUnusedPrefetch);
}

TEST(CacheTest, UsedPrefetchEvictionNotReported)
{
    Cache c(smallGeometry());
    const std::uint64_t stride = 1024;
    c.insertPrefetch(0);
    c.access(0, false); // use it
    for (int i = 1; i < 4; ++i)
        c.access(stride * static_cast<std::uint64_t>(i), false);
    auto out = c.access(stride * 4, false);
    EXPECT_FALSE(out.evictedUnusedPrefetch);
}

TEST(CacheTest, PrefetchExistingLineIsNoop)
{
    Cache c(smallGeometry());
    c.access(0x3000, true); // dirty demand line
    c.insertPrefetch(0x3000);
    // Dirty bit must survive the no-op prefetch.
    const std::uint64_t stride = 1024;
    std::uint64_t base = 0x3000;
    for (int i = 1; i < 4; ++i)
        c.access(base + stride * static_cast<std::uint64_t>(i), false);
    auto out = c.access(base + stride * 4, false);
    EXPECT_TRUE(out.writeback);
}

TEST(CacheTest, InvalidateAllEmptiesCache)
{
    Cache c(smallGeometry());
    c.access(0x1000, false);
    c.invalidateAll();
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_FALSE(c.access(0x1000, false).hit);
}

TEST(CacheTest, WorkingSetLargerThanCacheThrashes)
{
    Cache c(smallGeometry()); // 4 KiB
    // 8 KiB working set streamed twice: second pass still misses a lot.
    std::uint64_t miss_start = c.misses();
    for (int pass = 0; pass < 2; ++pass)
        for (std::uint64_t a = 0; a < 8 * 1024; a += 64)
            c.access(a, false);
    EXPECT_GT(c.misses() - miss_start, 128u);
}

TEST(CacheTest, WorkingSetSmallerThanCacheSettles)
{
    Cache c(smallGeometry());
    for (int pass = 0; pass < 4; ++pass)
        for (std::uint64_t a = 0; a < 2 * 1024; a += 64)
            c.access(a, false);
    // Only the 32 cold misses of the first pass.
    EXPECT_EQ(c.misses(), 32u);
}
