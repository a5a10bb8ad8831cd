/**
 * @file
 * Unit tests for the bench harness: percentile math, JSON round-trip
 * of reports, gate verdicts (pass / regress / missing-metric /
 * new-metric / skipped), the self-test regression injector, and
 * byte-determinism of reports under shuffled registration order.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "harness.hh"

using namespace netchar::bench;

namespace
{

// A fixed fake clock keeps wall_s identical across runs so report
// bytes can be compared exactly.
double
fakeClock()
{
    static double t = 0.0;
    t += 0.125;
    return t;
}

RunConfig
quietConfig()
{
    RunConfig config;
    config.echoText = false;
    config.progress = false;
    config.clock = &fakeClock;
    return config;
}

void
bodyAlpha(Context &ctx)
{
    ctx.metric("throughput", "Minstr/s", 10.0, true);
    ctx.metric("latency", "ms", 2.0, false);
    ctx.printf("alpha ran repeat %d\n", ctx.repeat());
}

void
bodyBeta(Context &ctx)
{
    ctx.metric("accuracy", "%", 98.5, true);
}

void
bodyFails(Context &ctx)
{
    ctx.fail("invariant broke");
}

Registry
makeRegistry(bool reversed)
{
    Registry registry;
    std::vector<BenchDef> defs{
        {"alpha", "first", &bodyAlpha, 4, 2, 1},
        {"beta", "second", &bodyBeta, 1, 1, 0},
    };
    if (reversed)
        std::reverse(defs.begin(), defs.end());
    for (auto &def : defs)
        registry.add(std::move(def));
    return registry;
}

/** Baseline matching bodyAlpha/bodyBeta outputs exactly. */
Report
selfBaseline()
{
    Report report = runAll(makeRegistry(false), quietConfig());
    return report;
}

Gate
gate(const std::string &id, const std::string &bench,
     const std::string &metric, GateKind kind, double threshold,
     unsigned min_hw = 0)
{
    Gate g;
    g.id = id;
    g.bench = bench;
    g.metric = metric;
    g.kind = kind;
    g.threshold = threshold;
    g.minHardwareThreads = min_hw;
    return g;
}

} // namespace

TEST(Percentile, SingleSample)
{
    const std::vector<double> xs{42.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 42.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 42.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 0.99), 42.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 42.0);
}

TEST(Percentile, EvenCountInterpolates)
{
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    // rank = q * (n-1) = 1.5 at the median of four samples.
    EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 4.0);
    // rank = 0.9 * 3 = 2.7 -> 3 + 0.7 * (4 - 3).
    EXPECT_NEAR(percentile(xs, 0.9), 3.7, 1e-12);
}

TEST(Percentile, OddCountHitsExactRanks)
{
    const std::vector<double> xs{10.0, 20.0, 30.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 20.0);
}

TEST(Aggregate, OrderStatistics)
{
    const auto agg = aggregate({3.0, 1.0, 2.0, 4.0});
    EXPECT_EQ(agg.n, 4u);
    EXPECT_DOUBLE_EQ(agg.min, 1.0);
    EXPECT_DOUBLE_EQ(agg.max, 4.0);
    EXPECT_DOUBLE_EQ(agg.mean, 2.5);
    EXPECT_DOUBLE_EQ(agg.p50, 2.5);
}

TEST(RunEngine, RepeatsAndWallMetric)
{
    const Registry registry = makeRegistry(false);
    RunConfig config = quietConfig();
    const auto result = runBench(*registry.find("alpha"), config);
    EXPECT_FALSE(result.failed);
    const auto *throughput = result.find("throughput");
    ASSERT_NE(throughput, nullptr);
    EXPECT_EQ(throughput->agg.n, 4u); // full-mode repeats
    EXPECT_TRUE(throughput->higherIsBetter);
    const auto *wall = result.find("wall_s");
    ASSERT_NE(wall, nullptr);
    EXPECT_EQ(wall->agg.n, 4u);
    EXPECT_GT(wall->agg.p50, 0.0);
}

TEST(RunEngine, FailureLatches)
{
    Registry registry;
    registry.add({"bad", "always fails", &bodyFails, 1, 1, 0});
    const auto result =
        runBench(*registry.find("bad"), quietConfig());
    EXPECT_TRUE(result.failed);
    EXPECT_EQ(result.failure, "invariant broke");
}

TEST(RunEngine, DuplicateNameThrows)
{
    Registry registry;
    registry.add({"dup", "", &bodyBeta, 1, 1, 0});
    EXPECT_THROW(registry.add({"dup", "", &bodyBeta, 1, 1, 0}),
                 std::logic_error);
}

TEST(Report, JsonRoundTrip)
{
    const Report report = selfBaseline();
    const std::string json = reportJson(report);
    Report parsed;
    std::string error;
    ASSERT_TRUE(parseReportJson(json, parsed, error)) << error;
    EXPECT_EQ(parsed.mode, report.mode);
    EXPECT_EQ(parsed.hardwareThreads, report.hardwareThreads);
    ASSERT_EQ(parsed.benches.size(), report.benches.size());
    for (std::size_t b = 0; b < parsed.benches.size(); ++b) {
        const auto &pb = parsed.benches[b];
        const auto &rb = report.benches[b];
        EXPECT_EQ(pb.name, rb.name);
        ASSERT_EQ(pb.metrics.size(), rb.metrics.size());
        for (std::size_t m = 0; m < pb.metrics.size(); ++m) {
            EXPECT_EQ(pb.metrics[m].name, rb.metrics[m].name);
            EXPECT_EQ(pb.metrics[m].unit, rb.metrics[m].unit);
            EXPECT_EQ(pb.metrics[m].higherIsBetter,
                      rb.metrics[m].higherIsBetter);
            EXPECT_DOUBLE_EQ(pb.metrics[m].agg.p50,
                             rb.metrics[m].agg.p50);
            EXPECT_DOUBLE_EQ(pb.metrics[m].agg.p99,
                             rb.metrics[m].agg.p99);
        }
    }
    // Serializing the parse must give identical bytes.
    EXPECT_EQ(reportJson(parsed), json);
}

TEST(Report, ParseRejectsGarbage)
{
    Report out;
    std::string error;
    EXPECT_FALSE(parseReportJson("not json", out, error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parseReportJson("{\"schema\": \"bogus\"}", out,
                                 error));

    // A baseline cut short anywhere before its closing brace (a
    // truncated write or download) is rejected with a message.
    const std::string json = reportJson(selfBaseline());
    const std::size_t close = json.rfind('}');
    ASSERT_NE(close, std::string::npos);
    for (std::size_t n = 0; n < close; ++n) {
        error.clear();
        EXPECT_FALSE(parseReportJson(json.substr(0, n), out, error))
            << "prefix of " << n << " bytes parsed";
        EXPECT_FALSE(error.empty()) << "prefix of " << n << " bytes";
    }
}

TEST(Report, BytesStableUnderRegistrationOrder)
{
    RunConfig config = quietConfig();
    const auto forward = runAll(makeRegistry(false), config);
    const auto reversed = runAll(makeRegistry(true), config);
    EXPECT_EQ(reportJson(forward), reportJson(reversed));
    EXPECT_EQ(reportTable(forward), reportTable(reversed));
    EXPECT_EQ(reportCsv(forward), reportCsv(reversed));
}

TEST(Gates, PassAndRegress)
{
    const Report baseline = selfBaseline();
    Report current = baseline;

    const std::vector<Gate> gates{
        gate("T-01", "alpha", "throughput",
             GateKind::MinRatioVsBaseline, 0.92),
        gate("T-02", "alpha", "latency",
             GateKind::MaxRatioVsBaseline, 1.25),
        gate("T-03", "beta", "accuracy", GateKind::MinAbsolute,
             90.0),
    };

    auto report = checkGates(current, baseline, gates, 8);
    EXPECT_TRUE(report.pass);
    for (const auto &outcome : report.outcomes)
        EXPECT_EQ(outcome.verdict, Verdict::Pass);

    // Halve throughput: T-01 must regress, the others still pass.
    // Gates compare the best observed sample, so scale every order
    // statistic as a uniform slowdown would.
    for (auto &bench : current.benches)
        for (auto &metric : bench.metrics)
            if (bench.name == "alpha" &&
                metric.name == "throughput") {
                metric.agg.p50 *= 0.5;
                metric.agg.p90 *= 0.5;
                metric.agg.p99 *= 0.5;
                metric.agg.min *= 0.5;
                metric.agg.max *= 0.5;
                metric.agg.mean *= 0.5;
            }
    report = checkGates(current, baseline, gates, 8);
    EXPECT_FALSE(report.pass);
    ASSERT_EQ(report.outcomes.size(), 3u);
    EXPECT_EQ(report.outcomes[0].verdict, Verdict::Regress);
    EXPECT_EQ(report.outcomes[1].verdict, Verdict::Pass);
    EXPECT_EQ(report.outcomes[2].verdict, Verdict::Pass);
    // The rendered table names the failing gate.
    const std::string table = gateTable(report);
    EXPECT_NE(table.find("T-01"), std::string::npos);
    EXPECT_NE(table.find("REGRESS"), std::string::npos);
}

TEST(Gates, MissingMetricFails)
{
    const Report baseline = selfBaseline();
    const std::vector<Gate> gates{
        gate("T-04", "alpha", "does_not_exist",
             GateKind::MinAbsolute, 1.0),
    };
    const auto report = checkGates(baseline, baseline, gates, 8);
    EXPECT_FALSE(report.pass);
    ASSERT_EQ(report.outcomes.size(), 1u);
    EXPECT_EQ(report.outcomes[0].verdict, Verdict::MissingMetric);
}

TEST(Gates, MetricMissingFromBaselineFails)
{
    const Report current = selfBaseline();
    Report baseline = current;
    // Drop alpha.throughput from the baseline only: a ratio gate
    // cannot resolve its bound, which must fail loudly rather than
    // silently pass.
    for (auto &bench : baseline.benches)
        if (bench.name == "alpha")
            bench.metrics.erase(bench.metrics.begin() +
                                (bench.metrics[0].name == "latency"
                                     ? 1
                                     : 0));
    const std::vector<Gate> gates{
        gate("T-05", "alpha", "throughput",
             GateKind::MinRatioVsBaseline, 0.92),
    };
    const auto report = checkGates(current, baseline, gates, 8);
    EXPECT_FALSE(report.pass);
    EXPECT_EQ(report.outcomes[0].verdict, Verdict::MissingMetric);
}

TEST(Gates, NewMetricsListed)
{
    const Report current = selfBaseline();
    Report baseline = current;
    // Remove beta entirely from the baseline: its metrics are "new".
    baseline.benches.erase(
        std::remove_if(baseline.benches.begin(),
                       baseline.benches.end(),
                       [](const BenchResult &b) {
                           return b.name == "beta";
                       }),
        baseline.benches.end());
    const auto report =
        checkGates(current, baseline, {}, 8);
    EXPECT_TRUE(report.pass); // new metrics inform, never fail
    ASSERT_FALSE(report.newMetrics.empty());
    EXPECT_NE(std::find(report.newMetrics.begin(),
                        report.newMetrics.end(),
                        "beta.accuracy"),
              report.newMetrics.end());
}

TEST(Gates, HardwareThreadPreconditionSkips)
{
    const Report baseline = selfBaseline();
    const std::vector<Gate> gates{
        gate("T-06", "alpha", "throughput", GateKind::MinAbsolute,
             5.0, /*min_hw=*/4),
    };
    const auto on_small_host =
        checkGates(baseline, baseline, gates, 1);
    EXPECT_TRUE(on_small_host.pass);
    EXPECT_EQ(on_small_host.outcomes[0].verdict, Verdict::Skipped);

    const auto on_big_host =
        checkGates(baseline, baseline, gates, 8);
    EXPECT_EQ(on_big_host.outcomes[0].verdict, Verdict::Pass);
}

TEST(Gates, InjectRegressionTripsEveryGateKind)
{
    const Report baseline = selfBaseline();
    Report perturbed = baseline;
    const std::vector<Gate> gates{
        gate("T-07", "alpha", "throughput",
             GateKind::MinRatioVsBaseline, 0.92),
        gate("T-08", "alpha", "latency",
             GateKind::MaxRatioVsBaseline, 1.25),
        gate("T-09", "beta", "accuracy", GateKind::MinAbsolute,
             90.0),
        gate("T-10", "alpha", "latency", GateKind::MaxAbsolute,
             3.0),
    };
    injectRegression(perturbed, gates);
    const auto report = checkGates(perturbed, baseline, gates, 8);
    EXPECT_FALSE(report.pass);
    for (const auto &outcome : report.outcomes)
        EXPECT_EQ(outcome.verdict, Verdict::Regress)
            << outcome.gate.id;
}

TEST(Gates, CiGateSetIsWellFormed)
{
    const auto &gates = ciGates();
    ASSERT_FALSE(gates.empty());
    std::vector<std::string> ids;
    for (const auto &g : gates) {
        EXPECT_FALSE(g.id.empty());
        EXPECT_FALSE(g.bench.empty());
        EXPECT_FALSE(g.metric.empty());
        EXPECT_FALSE(g.rationale.empty());
        EXPECT_GT(g.threshold, 0.0);
        ids.push_back(g.id);
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()),
              ids.end())
        << "duplicate gate id";
    // Every gated bench must actually exist in the global registry
    // (all benches self-register into this test binary's process? No
    // — none do; the gate set is validated against names the driver
    // documents instead). The stable contract here is the ID scheme.
    for (const auto &g : gates)
        EXPECT_NE(g.id.find('-'), std::string::npos);
}
