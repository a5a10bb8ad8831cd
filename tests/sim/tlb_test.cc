#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/tlb.hh"

using netchar::sim::Tlb;
using netchar::sim::TlbGeometry;
using netchar::sim::TlbHierarchy;

TEST(TlbTest, GeometryValidation)
{
    EXPECT_THROW(Tlb({0, 4, 4096}), std::invalid_argument);
    EXPECT_THROW(Tlb({64, 0, 4096}), std::invalid_argument);
    EXPECT_THROW(Tlb({64, 4, 0}), std::invalid_argument);
    EXPECT_THROW(Tlb({63, 4, 4096}), std::invalid_argument);
}

TEST(TlbTest, RejectsNonPowerOfTwoPage)
{
    // Page numbers are shifts, so a 3000 B page cannot be modelled.
    EXPECT_THROW(Tlb({64, 4, 3000}), std::invalid_argument);
    Tlb huge({64, 4, 2 * 1024 * 1024});
    EXPECT_FALSE(huge.access(0x200000));
    EXPECT_TRUE(huge.access(0x3FFFFF)); // same 2 MiB page
    EXPECT_FALSE(huge.access(0x400000));
}

TEST(TlbTest, MissThenHitSamePage)
{
    Tlb tlb({16, 4, 4096});
    EXPECT_FALSE(tlb.access(0x1000));
    EXPECT_TRUE(tlb.access(0x1FFF));  // same 4 KiB page
    EXPECT_FALSE(tlb.access(0x2000)); // next page
    EXPECT_EQ(tlb.misses(), 2u);
    EXPECT_EQ(tlb.accesses(), 3u);
}

TEST(TlbTest, LruWithinSet)
{
    // 16 entries, 4-way -> 4 sets; pages 4 apart share a set.
    Tlb tlb({16, 4, 4096});
    const std::uint64_t page = 4096;
    for (std::uint64_t i = 0; i < 4; ++i)
        tlb.access(i * 4 * page);
    tlb.access(0);                  // refresh page 0
    tlb.access(16 * page);          // evicts page 4 (LRU)
    EXPECT_TRUE(tlb.contains(0));
    EXPECT_FALSE(tlb.contains(4 * page));
}

TEST(TlbTest, InstallPreWarms)
{
    Tlb tlb({16, 4, 4096});
    tlb.install(0x5000);
    EXPECT_TRUE(tlb.access(0x5000));
    EXPECT_EQ(tlb.misses(), 0u);
}

TEST(TlbTest, InvalidateAll)
{
    Tlb tlb({16, 4, 4096});
    tlb.access(0x1000);
    tlb.invalidateAll();
    EXPECT_FALSE(tlb.contains(0x1000));
}

TEST(TlbHierarchyTest, StlbCatchesL1Evictions)
{
    // Tiny L1 TLB (4 entries), large STLB.
    TlbHierarchy h({4, 4, 4096}, {64, 4, 4096});
    const std::uint64_t page = 4096;
    // Fill 8 pages: L1 holds only 4, STLB holds all.
    for (std::uint64_t i = 0; i < 8; ++i)
        h.access(i * page);
    EXPECT_EQ(h.walks(), 8u);
    // Re-access first page: L1 miss but STLB hit, no new walk.
    auto out = h.access(0);
    EXPECT_FALSE(out.hit);
    EXPECT_TRUE(out.stlbHit);
    EXPECT_EQ(h.walks(), 8u);
}

TEST(TlbHierarchyTest, DisabledStlbAlwaysWalks)
{
    TlbHierarchy h({4, 4, 4096}, {0, 1, 4096});
    const std::uint64_t page = 4096;
    for (std::uint64_t i = 0; i < 8; ++i)
        h.access(i * page);
    auto out = h.access(0); // evicted from the 4-entry L1
    EXPECT_FALSE(out.hit);
    EXPECT_FALSE(out.stlbHit);
    EXPECT_EQ(h.walks(), 9u);
}

TEST(TlbHierarchyTest, InstallWarmsBothLevels)
{
    TlbHierarchy h({4, 4, 4096}, {64, 4, 4096});
    h.install(0x9000);
    auto out = h.access(0x9000);
    EXPECT_TRUE(out.hit);
    EXPECT_EQ(h.walks(), 0u);
}

TEST(TlbHierarchyTest, InvalidateAllClearsBothLevels)
{
    TlbHierarchy h({4, 4, 4096}, {64, 4, 4096});
    h.access(0x1000);
    h.invalidateAll();
    auto out = h.access(0x1000);
    EXPECT_FALSE(out.hit);
    EXPECT_FALSE(out.stlbHit);
}

TEST(TlbHierarchyTest, L1MissCountMatchesPerfSemantics)
{
    TlbHierarchy h({4, 4, 4096}, {64, 4, 4096});
    const std::uint64_t page = 4096;
    for (std::uint64_t i = 0; i < 8; ++i)
        h.access(i * page);
    h.access(0); // L1 miss, STLB hit: still an L1 miss for perf
    EXPECT_EQ(h.l1Misses(), 9u);
}
