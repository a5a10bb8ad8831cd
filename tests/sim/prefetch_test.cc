#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/prefetch.hh"

using netchar::sim::PrefetcherParams;
using netchar::sim::StreamPrefetcher;

namespace
{

PrefetcherParams
basicParams()
{
    PrefetcherParams p;
    p.streams = 4;
    p.degree = 2;
    p.trainThreshold = 2;
    p.lineBytes = 64;
    p.pageBytes = 4096;
    return p;
}

} // namespace

TEST(PrefetchTest, RejectsBadParams)
{
    PrefetcherParams p = basicParams();
    p.streams = 0;
    EXPECT_THROW(StreamPrefetcher{p}, std::invalid_argument);
    p = basicParams();
    p.lineBytes = 0;
    EXPECT_THROW(StreamPrefetcher{p}, std::invalid_argument);
}

TEST(PrefetchTest, NoPrefetchUntilTrained)
{
    StreamPrefetcher pf(basicParams());
    EXPECT_TRUE(pf.observe(0x1000).empty()); // allocate stream
    EXPECT_TRUE(pf.observe(0x1040).empty()); // confidence 1 < 2
    EXPECT_FALSE(pf.observe(0x1080).empty()); // confidence 2: fire
}

TEST(PrefetchTest, AscendingStreamPrefetchesAhead)
{
    StreamPrefetcher pf(basicParams());
    pf.observe(0x1000);
    pf.observe(0x1040);
    auto out = pf.observe(0x1080);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 0x10C0u);
    EXPECT_EQ(out[1], 0x1100u);
}

TEST(PrefetchTest, DescendingStreamPrefetchesBehind)
{
    StreamPrefetcher pf(basicParams());
    pf.observe(0x1100);
    pf.observe(0x10C0);
    auto out = pf.observe(0x1080);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 0x1040u);
    EXPECT_EQ(out[1], 0x1000u);
}

TEST(PrefetchTest, StopsAtPageBoundary)
{
    StreamPrefetcher pf(basicParams());
    // Train near the end of a page: 0xF80 is the second-to-last line.
    pf.observe(0xE80);
    pf.observe(0xEC0);
    pf.observe(0xF00);
    pf.observe(0xF40);
    auto out = pf.observe(0xF80);
    // Only 0xFC0 is in-page; 0x1000 would cross and must be dropped.
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0xFC0u);
}

TEST(PrefetchTest, CrossPageHintPrefetchesThroughBoundary)
{
    PrefetcherParams p = basicParams();
    p.crossPageHint = true; // streams run past the page boundary
    StreamPrefetcher pf(p);
    pf.observe(0xE80);
    pf.observe(0xEC0);
    pf.observe(0xF00);
    pf.observe(0xF40);
    auto out = pf.observe(0xF80);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 0xFC0u);
    EXPECT_EQ(out[1], 0x1000u); // crosses into the next page
}

TEST(PrefetchTest, DirectionFlipResetsConfidence)
{
    StreamPrefetcher pf(basicParams());
    pf.observe(0x1000);
    pf.observe(0x1040);
    pf.observe(0x1080);          // trained ascending
    EXPECT_TRUE(pf.observe(0x1040).empty()); // flip: confidence reset
}

TEST(PrefetchTest, SameLineAccessEmitsNothing)
{
    StreamPrefetcher pf(basicParams());
    pf.observe(0x1000);
    EXPECT_TRUE(pf.observe(0x1010).empty()); // same 64 B line
}

TEST(PrefetchTest, IndependentStreamsPerPage)
{
    StreamPrefetcher pf(basicParams());
    // Interleave two pages; both streams train independently.
    pf.observe(0x1000);
    pf.observe(0x5000);
    pf.observe(0x1040);
    pf.observe(0x5040);
    EXPECT_FALSE(pf.observe(0x1080).empty());
    EXPECT_FALSE(pf.observe(0x5080).empty());
}

TEST(PrefetchTest, StreamTableEvictsLru)
{
    StreamPrefetcher pf(basicParams()); // 4 streams
    for (std::uint64_t p = 0; p < 5; ++p)
        pf.observe(p * 0x10000); // 5 distinct pages: evicts page 0
    // Page 0's stream was evicted; retraining needed from scratch.
    EXPECT_TRUE(pf.observe(0x40).empty());
    EXPECT_TRUE(pf.observe(0x80).empty());
    EXPECT_FALSE(pf.observe(0xC0).empty());
}

TEST(PrefetchTest, ResetForgetsStreams)
{
    StreamPrefetcher pf(basicParams());
    pf.observe(0x1000);
    pf.observe(0x1040);
    pf.reset();
    EXPECT_TRUE(pf.observe(0x1080).empty());
}

TEST(PrefetchTest, DegreeRespected)
{
    PrefetcherParams p = basicParams();
    p.degree = 4;
    StreamPrefetcher pf(p);
    pf.observe(0x1000);
    pf.observe(0x1040);
    auto out = pf.observe(0x1080);
    EXPECT_EQ(out.size(), 4u);
}
