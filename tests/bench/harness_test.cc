/**
 * @file
 * Unit tests for the bench harness: one value per metric per run,
 * the JSON report read back through the repo's JSON parser, gate
 * verdicts (pass / regress / missing-metric / skipped), the
 * self-test regression injector, and byte-determinism of reports
 * under shuffled registration order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "harness.hh"
#include "stats/json.hh"

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
    ctx.metric("throughput", "Minstr/s", 10.0);
    ctx.metric("latency", "ms", 2.0);
    ctx.printf("alpha ran\n");
}

void
bodyBeta(Context &ctx)
{
    ctx.metric("accuracy", "%", 98.5);
}

void
bodyRecordsTwice(Context &ctx)
{
    ctx.metric("latency", "ms", 2.0);
    ctx.metric("latency", "ms", 3.0);
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
        {"alpha", "first", &bodyAlpha},
        {"beta", "second", &bodyBeta},
    };
    if (reversed)
        std::reverse(defs.begin(), defs.end());
    for (auto &def : defs)
        registry.add(std::move(def));
    return registry;
}

/** The report of one quiet run of alpha and beta. */
Report
sampleReport()
{
    return runAll(makeRegistry(false), quietConfig());
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

TEST(RunEngine, RepeatsAndWallMetric)
{
    // A bench runs once: each metric holds the one value it recorded,
    // and the harness adds the run's wall time.
    const Registry registry = makeRegistry(false);
    const auto result =
        runBench(*registry.find("alpha"), quietConfig());
    EXPECT_FALSE(result.failed);
    ASSERT_EQ(result.metrics.size(), 3u);
    const auto *throughput = result.find("throughput");
    ASSERT_NE(throughput, nullptr);
    EXPECT_EQ(throughput->value, 10.0);
    const auto *wall = result.find("wall_s");
    ASSERT_NE(wall, nullptr);
    EXPECT_EQ(wall->unit, "s");
    EXPECT_GT(wall->value, 0.0);
}

TEST(RunEngine, DuplicateMetricFailsTheBench)
{
    Registry registry;
    registry.add({"twice", "records latency twice", &bodyRecordsTwice});
    const auto result =
        runBench(*registry.find("twice"), quietConfig());
    EXPECT_TRUE(result.failed);
    EXPECT_NE(result.failure.find("'latency'"), std::string::npos)
        << result.failure;
    const auto *latency = result.find("latency");
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->value, 2.0);
}

TEST(RunEngine, FailureLatches)
{
    Registry registry;
    registry.add({"bad", "always fails", &bodyFails});
    const auto result =
        runBench(*registry.find("bad"), quietConfig());
    EXPECT_TRUE(result.failed);
    EXPECT_EQ(result.failure, "invariant broke");
}

TEST(RunEngine, DuplicateNameThrows)
{
    Registry registry;
    registry.add({"dup", "", &bodyBeta});
    EXPECT_THROW(registry.add({"dup", "", &bodyBeta}),
                 std::logic_error);
}

TEST(Report, JsonRoundTrip)
{
    const Report report = sampleReport();
    netchar::JsonValue root;
    std::string error;
    ASSERT_TRUE(netchar::parseJson(reportJson(report), root, error))
        << error;
    const auto *schema = root.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->string, "netchar-bench/v2");
    const auto *mode = root.find("mode");
    ASSERT_NE(mode, nullptr);
    EXPECT_EQ(mode->string, report.mode);
    const auto *threads = root.find("hardwareThreads");
    ASSERT_NE(threads, nullptr);
    EXPECT_EQ(threads->number,
              static_cast<double>(report.hardwareThreads));
    const auto *benches = root.find("benches");
    ASSERT_NE(benches, nullptr);
    ASSERT_EQ(benches->array.size(), report.benches.size());
    for (std::size_t b = 0; b < report.benches.size(); ++b) {
        const auto &jb = benches->array[b];
        const auto &rb = report.benches[b];
        ASSERT_NE(jb.find("name"), nullptr);
        EXPECT_EQ(jb.find("name")->string, rb.name);
        const auto *metrics = jb.find("metrics");
        ASSERT_NE(metrics, nullptr);
        ASSERT_EQ(metrics->array.size(), rb.metrics.size());
        for (std::size_t m = 0; m < rb.metrics.size(); ++m) {
            const auto &jm = metrics->array[m];
            const auto &rm = rb.metrics[m];
            ASSERT_NE(jm.find("name"), nullptr);
            EXPECT_EQ(jm.find("name")->string, rm.name);
            ASSERT_NE(jm.find("unit"), nullptr);
            EXPECT_EQ(jm.find("unit")->string, rm.unit);
            // jsonNumber prints the shortest round-tripping form, so
            // the values come back exactly.
            ASSERT_NE(jm.find("value"), nullptr);
            EXPECT_EQ(jm.find("value")->number, rm.value);
        }
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
    Report current = sampleReport();

    const std::vector<Gate> gates{
        gate("T-01", "alpha", "throughput", GateKind::MinAbsolute,
             9.0),
        gate("T-02", "alpha", "latency", GateKind::MaxAbsolute, 2.5),
        gate("T-03", "beta", "accuracy", GateKind::MinAbsolute,
             90.0),
    };

    auto report = checkGates(current, gates, 8);
    EXPECT_TRUE(report.pass);
    for (const auto &outcome : report.outcomes)
        EXPECT_EQ(outcome.verdict, Verdict::Pass);

    // Halve throughput: T-01 must regress, the others still pass.
    for (auto &bench : current.benches)
        for (auto &metric : bench.metrics)
            if (bench.name == "alpha" && metric.name == "throughput")
                metric.value *= 0.5;
    report = checkGates(current, gates, 8);
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
    const std::vector<Gate> gates{
        gate("T-04", "alpha", "does_not_exist",
             GateKind::MinAbsolute, 1.0),
    };
    const auto report = checkGates(sampleReport(), gates, 8);
    EXPECT_FALSE(report.pass);
    ASSERT_EQ(report.outcomes.size(), 1u);
    EXPECT_EQ(report.outcomes[0].verdict, Verdict::MissingMetric);
}

TEST(Gates, HardwareThreadPreconditionSkips)
{
    const Report report = sampleReport();
    const std::vector<Gate> gates{
        gate("T-06", "alpha", "throughput", GateKind::MinAbsolute,
             5.0, /*min_hw=*/4),
    };
    const auto on_small_host = checkGates(report, gates, 1);
    EXPECT_TRUE(on_small_host.pass);
    EXPECT_EQ(on_small_host.outcomes[0].verdict, Verdict::Skipped);

    const auto on_big_host = checkGates(report, gates, 8);
    EXPECT_EQ(on_big_host.outcomes[0].verdict, Verdict::Pass);
}

TEST(Gates, InjectRegressionTripsEveryGateKind)
{
    Report perturbed = sampleReport();
    const std::vector<Gate> gates{
        gate("T-09", "beta", "accuracy", GateKind::MinAbsolute,
             90.0),
        gate("T-10", "alpha", "latency", GateKind::MaxAbsolute,
             3.0),
    };
    injectRegression(perturbed, gates);
    const auto report = checkGates(perturbed, gates, 8);
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
    // IDs are unique and hyphenated (FAMILY-NN); the
    // docs.bench.coverage ctest checks every gated bench is registered.
    for (const auto &g : gates)
        EXPECT_NE(g.id.find('-'), std::string::npos);
}
