/**
 * @file
 * Measurement-core tests, run on an injected clock so every expected
 * value is exact: open-loop latency from the due time, the
 * percentile-support rule, span self-time arithmetic, and how often
 * the host-speed reference samples.
 */

#include <gtest/gtest.h>

#include <memory>

#include "harness.hh"

namespace
{

using namespace perfbench;

/** A clock that moves only when the test moves it. */
struct FakeTime
{
    double now = 0.0;

    Clock
    clock()
    {
        Clock c;
        c.now = [this] { return now; };
        c.sleepUntil = [this](double t) { now = std::max(now, t); };
        return c;
    }
};

TEST(OpenLoop, LatencyRunsFromDueTimeNotSendTime)
{
    FakeTime t;
    // Requests due every 10 ms; each reply takes 1 ms, except request
    // 2, whose responder stalls for 35 ms.
    const std::vector<double> due = {0.00, 0.01, 0.02, 0.03,
                                     0.04, 0.05, 0.06};
    const auto result = runOpenLoop(
        due,
        [&](std::size_t i) {
            t.now += i == 2 ? 0.035 : 0.001;
            return true;
        },
        t.clock());
    ASSERT_EQ(result.latency.size(), due.size());
    EXPECT_DOUBLE_EQ(result.latency[0], 0.001);
    EXPECT_DOUBLE_EQ(result.latency[1], 0.001);
    EXPECT_DOUBLE_EQ(result.latency[2], 0.035);
    // The stall ends at 55 ms. Request 3 (due 30 ms) goes out then,
    // and requests 4 and 5 queue behind it: each reply takes 1 ms,
    // yet they are charged 26, 17 and 8 ms.
    EXPECT_NEAR(result.latency[3], 0.026, 1e-12);
    EXPECT_NEAR(result.latency[4], 0.017, 1e-12);
    EXPECT_NEAR(result.latency[5], 0.008, 1e-12);
    // The backlog has drained by request 6's due time (60 ms).
    EXPECT_NEAR(result.latency[6], 0.001, 1e-12);
    // The generator itself ran late by exactly the backlog.
    EXPECT_NEAR(result.lag[3], 0.025, 1e-12);
    EXPECT_NEAR(result.lag[6], 0.0, 1e-12);
    EXPECT_EQ(result.failed, 0u);
}

TEST(OpenLoop, FailedSendsAreCountedNotTimed)
{
    FakeTime t;
    const auto result = runOpenLoop(
        {0.0, 0.1, 0.2}, [](std::size_t i) { return i != 1; },
        t.clock());
    EXPECT_EQ(result.failed, 1u);
    EXPECT_EQ(result.latency.size(), 2u);
}

TEST(Percentiles, SupportNeedsTenSamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(20000, 999), 20u);
    EXPECT_TRUE(supportsPercentile(20000, 999));
    EXPECT_EQ(samplesBeyond(900, 990), 9u);
    EXPECT_FALSE(supportsPercentile(900, 990));
    EXPECT_TRUE(supportsPercentile(1000, 990));
    EXPECT_TRUE(supportsPercentile(100, 900));
    EXPECT_FALSE(supportsPercentile(99, 900));
    EXPECT_FALSE(supportsPercentile(0, 500));
}

TEST(Percentiles, LinearInterpolation)
{
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(percentile({10.0, 20.0, 30.0, 40.0, 50.0}, 900),
                     46.0);
    EXPECT_THROW(percentile({}, 500), std::invalid_argument);
}

/** Build spans directly: (name, start, end, parent). */
Span
span(const char *name, double start, double end, int parent)
{
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    return s;
}

TEST(Spans, SelfTimeSubtractsUnionOfOverlappingChildren)
{
    // Parent [0,10]; children [1,3] and [2,5] overlap, [9,12] runs
    // past the parent's end. Covered = [1,5] + [9,10] = 5.
    const std::vector<Span> spans = {
        span("bench.op", 0, 10, -1), span("a.x", 1, 3, 0),
        span("a.y", 2, 5, 0), span("a.z", 9, 12, 0),
        span("b.w", 3, 4, 2), // grandchild: counts against a.y only
    };
    const auto self = selfTimes(spans);
    EXPECT_DOUBLE_EQ(self[0], 5.0);
    EXPECT_DOUBLE_EQ(self[1], 2.0);
    EXPECT_DOUBLE_EQ(self[2], 2.0);
    EXPECT_DOUBLE_EQ(self[3], 3.0);
    EXPECT_DOUBLE_EQ(self[4], 1.0);
    EXPECT_DOUBLE_EQ(unattributedFraction(spans), 0.5);
}

TEST(Spans, TracerNestsAndAppendRebasesParents)
{
    FakeTime t;
    Tracer tracer(t.clock());
    {
        Scoped root(&tracer, "bench.op", 7);
        t.now = 1.0;
        {
            Scoped child(&tracer, "sim.run", 7);
            t.now = 4.0;
        }
        t.now = 5.0;
    }
    ASSERT_EQ(tracer.spans().size(), 2u);
    EXPECT_EQ(tracer.spans()[1].parent, 0);
    EXPECT_EQ(tracer.spans()[1].op, 7u);

    std::vector<Span> all = tracer.spans();
    appendSpans(all, tracer.spans());
    EXPECT_EQ(all[3].parent, 2);
    const auto byName = selfTimeByName(all);
    ASSERT_EQ(byName.size(), 2u);
    EXPECT_EQ(byName[0].first, "bench.op");
    EXPECT_DOUBLE_EQ(byName[0].second, 4.0);
    EXPECT_DOUBLE_EQ(byName[1].second, 6.0);

    Scoped off(nullptr, "ignored", 0); // a null tracer records nothing
}

TEST(HostSpeed, SamplesUntilTheReferenceHasItsShare)
{
    // Each reading of this CPU clock moves it 1/64 s, so every sample
    // (two readings) takes exactly 1/64 s.
    constexpr double kStep = 1.0 / 64.0;
    double cpu = 0.0;
    HostSpeed speed([&cpu] { return cpu += kStep; });
    EXPECT_DOUBLE_EQ(speed.scale(), 1.0);

    speed.addWork(0.10); // the reference owes 0.020 s: two samples
    EXPECT_EQ(speed.samples(), 2u);
    speed.addWork(0.05); // owes 0.030 s, has 0.03125: none more
    EXPECT_EQ(speed.samples(), 2u);
    speed.addWork(0.01); // owes 0.032 s: one more
    EXPECT_EQ(speed.samples(), 3u);
    EXPECT_DOUBLE_EQ(speed.scale(), HostSpeed::kReferenceSeconds / kStep);
}

TEST(Results, ResultLineCarriesEveryDigit)
{
    Outcome out;
    out.attempted = 3;
    out.set("op_cost_ms", "ms", 1.0 / 3.0);
    EXPECT_EQ(resultJson(out),
              "{\"correct\":true,\"attempted\":3,\"failed\":0,"
              "\"metrics\":{\"op_cost_ms\":{\"value\":"
              "0.33333333333333331,\"unit\":\"ms\"}}}");
    out.fail("digest");
    EXPECT_FALSE(out.correct);
    EXPECT_EQ(out.failed, 1u);
}

TEST(SeededRng, SameSeedSameStream)
{
    SeededRng a(42), b(42), c(43);
    for (int i = 0; i < 8; ++i) {
        const auto x = a.next();
        EXPECT_EQ(x, b.next());
        EXPECT_NE(x, c.next());
    }
    SeededRng z(1);
    std::vector<int> hits(4, 0);
    for (int i = 0; i < 4000; ++i)
        ++hits[z.zipf(4)];
    EXPECT_GT(hits[0], hits[1]);
    EXPECT_GT(hits[1], hits[3]);
}

} // namespace
