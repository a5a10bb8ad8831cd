/**
 * @file
 * Tag 0 is a real tag: address 0 is line 0, page 0 and BTB tag 0. The
 * tag store holds each tag complemented, so its zeroed (and cleared)
 * array stands for empty ways, not for tag 0. These check that a
 * fresh or invalidated store reports a miss for tag 0 first and a hit
 * second.
 */

#include <gtest/gtest.h>

#include "sim/branch.hh"
#include "sim/cache.hh"
#include "sim/tlb.hh"

using netchar::sim::Btb;
using netchar::sim::Cache;
using netchar::sim::Tlb;

TEST(ColdTagZero, CacheMissesThenHits)
{
    Cache c({4 * 1024, 4, 64});
    for (int round = 0; round < 2; ++round) {
        EXPECT_FALSE(c.contains(0)) << "round " << round;
        EXPECT_FALSE(c.access(0, false).hit) << "round " << round;
        EXPECT_TRUE(c.access(0, false).hit) << "round " << round;
        c.invalidateAll();
    }
    EXPECT_FALSE(c.insertPrefetch(0).wasPresent);
    EXPECT_TRUE(c.insertPrefetch(0).wasPresent);
}

TEST(ColdTagZero, TlbMissesThenHits)
{
    Tlb tlb({64, 4, 4096});
    for (int round = 0; round < 2; ++round) {
        EXPECT_FALSE(tlb.contains(0)) << "round " << round;
        EXPECT_FALSE(tlb.access(0)) << "round " << round;
        EXPECT_TRUE(tlb.access(0)) << "round " << round;
        tlb.invalidateAll();
    }
    EXPECT_EQ(tlb.misses(), 2u);
}

TEST(ColdTagZero, BtbMissesThenHits)
{
    Btb btb(64, 4);
    for (int round = 0; round < 2; ++round) {
        EXPECT_FALSE(btb.contains(0)) << "round " << round;
        EXPECT_FALSE(btb.accessAndFill(0)) << "round " << round;
        EXPECT_TRUE(btb.accessAndFill(0)) << "round " << round;
        btb.invalidateAll();
    }
    EXPECT_EQ(btb.misses(), 2u);
}
