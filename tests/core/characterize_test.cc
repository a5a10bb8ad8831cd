#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/characterize.hh"
#include "core/correlation.hh"
#include "core/export.hh"
#include "trace/analyzer.hh"
#include "workloads/registry.hh"

using namespace netchar;

namespace
{

wl::WorkloadProfile
quickProfile()
{
    auto p = *wl::findProfile("System.Runtime");
    p.instructions = 150'000;
    return p;
}

RunOptions
quickOptions()
{
    RunOptions o;
    o.warmupInstructions = 150'000;
    return o;
}

/** Every field of two run results, compared exactly. */
void
expectSameResult(const RunResult &a, const RunResult &b)
{
    using C = sim::PerfCounters;
    for (const auto field :
         {&C::instructions, &C::kernelInstructions, &C::branches,
          &C::loads, &C::stores, &C::branchMisses, &C::btbMisses,
          &C::l1dMisses, &C::l1iMisses, &C::l2Misses, &C::llcMisses,
          &C::itlbMisses, &C::dtlbLoadMisses, &C::dtlbStoreMisses,
          &C::memReadBytes, &C::memWriteBytes, &C::dramAccesses,
          &C::dramRowMisses, &C::pageFaults, &C::prefetchesIssued,
          &C::prefetchesUseful, &C::prefetchesUseless})
        EXPECT_EQ(a.counters.*field, b.counters.*field);
    EXPECT_EQ(a.counters.cycles, b.counters.cycles);
    EXPECT_EQ(a.slots.slots, b.slots.slots);
    using E = rt::RuntimeEventCounts;
    for (const auto field :
         {&E::gcTriggered, &E::gcAllocationTick, &E::jitStarted,
          &E::exceptionStart, &E::contentionStart})
        EXPECT_EQ(a.events.*field, b.events.*field);
    EXPECT_EQ(a.metrics, b.metrics);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.instructionsPerSecond, b.instructionsPerSecond);
}

} // namespace

TEST(CharacterizerTest, RunProducesConsistentResult)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto r = ch.run(quickProfile(), quickOptions());
    EXPECT_EQ(r.counters.instructions, 150'000u);
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_GT(r.instructionsPerSecond, 0.0);
    // Metric vector agrees with the raw counters.
    EXPECT_DOUBLE_EQ(
        r.metrics[static_cast<std::size_t>(MetricId::Cpi)],
        r.counters.cpi());
    const double slot_sum = r.slots.total();
    EXPECT_NEAR(slot_sum,
                r.counters.cycles *
                    ch.config().pipe.slotsPerCycle,
                0.05 * slot_sum);
}

TEST(CharacterizerTest, DeterministicAcrossCalls)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto a = ch.run(quickProfile(), quickOptions());
    const auto b = ch.run(quickProfile(), quickOptions());
    EXPECT_EQ(a.counters.cycles, b.counters.cycles);
    EXPECT_EQ(a.counters.llcMisses, b.counters.llcMisses);
}

TEST(CharacterizerTest, SeedChangesRun)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    auto o = quickOptions();
    const auto a = ch.run(quickProfile(), o);
    o.seed = 99;
    const auto b = ch.run(quickProfile(), o);
    EXPECT_NE(a.counters.cycles, b.counters.cycles);
}

TEST(CharacterizerTest, WarmupIsExcludedFromCounters)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    auto o = quickOptions();
    o.measuredInstructions = 100'000;
    const auto r = ch.run(quickProfile(), o);
    EXPECT_EQ(r.counters.instructions, 100'000u);
}

TEST(CharacterizerTest, MultiCoreRunsAllCores)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    auto o = quickOptions();
    o.cores = 4;
    o.measuredInstructions = 50'000;
    auto p = *wl::findProfile("Plaintext");
    const auto r = ch.run(p, o);
    // 4 cores x 50k measured instructions each.
    EXPECT_EQ(r.counters.instructions, 200'000u);
}

TEST(CharacterizerTest, GcOverridesApply)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    auto p = quickProfile();
    p.allocBytesPerInst = 1.0;
    p.dataFootprint = 1 << 20;
    auto o = quickOptions();
    o.maxHeapBytes = 2ULL << 20; // small heap: frequent GC
    o.gcMode = rt::GcMode::Server;
    o.measuredInstructions = 400'000;
    const auto aggressive = ch.run(p, o);
    o.gcMode = rt::GcMode::Workstation;
    const auto relaxed = ch.run(p, o);
    EXPECT_GT(aggressive.metrics[static_cast<std::size_t>(
                  MetricId::GcTriggeredPki)],
              relaxed.metrics[static_cast<std::size_t>(
                  MetricId::GcTriggeredPki)]);
}

TEST(CharacterizerTest, ProfileFieldsMatchOptionOverrides)
{
    // The benches sweep cells that differ in GC mode, GC assist, heap
    // and allocation pressure by editing each cell's profile copy
    // under one RunOptions; that must measure exactly what the
    // per-run option overrides measure.
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    struct Case
    {
        rt::GcMode mode;
        rt::GcAssist assist;
        std::uint64_t heap;
        double allocScale;
    };
    const Case cases[] = {
        {rt::GcMode::Server, rt::GcAssist::Software, 48ULL << 20, 8.0},
        // Below the managed profile's footprint: the heap clamps it.
        {rt::GcMode::Workstation, rt::GcAssist::Hardware, 256ULL << 10,
         4.0},
    };
    ASSERT_LT(cases[1].heap,
              wl::findProfile("System.Runtime")->dataFootprint);
    for (const char *name : {"System.Runtime", "deepsjeng"}) {
        auto base = *wl::findProfile(name);
        base.instructions = 100'000;
        for (const auto &c : cases) {
            SCOPED_TRACE(std::string(name) + " heap " +
                         std::to_string(c.heap));
            RunOptions o = quickOptions();
            o.gcMode = c.mode;
            o.gcAssist = c.assist;
            o.maxHeapBytes = c.heap;
            o.allocScale = c.allocScale;
            auto edited = base;
            edited.gcMode = c.mode;
            edited.gcAssist = c.assist;
            edited.maxHeapBytes = c.heap;
            edited.allocBytesPerInst *= c.allocScale;
            expectSameResult(ch.run(base, o),
                             ch.run(edited, quickOptions()));
        }
    }
}

TEST(CharacterizerTest, SampleCyclesHoldsCycleBudget)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const double interval = 50'000.0;
    const auto samples =
        ch.sampleCycles(quickProfile(), quickOptions(), interval, 8);
    ASSERT_EQ(samples.size(), 8u);
    bool instructions_vary = false;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        // Each window covers at least the budget (plus one chunk of
        // overshoot at most).
        EXPECT_GE(samples[i].counters.cycles, interval * 0.99);
        EXPECT_LT(samples[i].counters.cycles, interval * 1.35);
        if (samples[i].counters.instructions !=
            samples[0].counters.instructions)
            instructions_vary = true;
    }
    // Unlike instruction-based sampling, IPC variation shows up as
    // varying instruction counts (the Fig 13 requirement).
    EXPECT_TRUE(instructions_vary);
}

TEST(CharacterizerTest, RunAllPreservesOrder)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    auto p1 = quickProfile();
    auto p2 = *wl::findProfile("SeekUnroll");
    p2.instructions = 150'000;
    const auto results =
        ch.runAll({p1, p2}, quickOptions(), Parallelism{});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_NE(results[0].counters.cycles, results[1].counters.cycles);
    EXPECT_EQ(results[0].counters.cycles,
              ch.run(p1, quickOptions()).counters.cycles);
    EXPECT_EQ(results[1].counters.cycles,
              ch.run(p2, quickOptions()).counters.cycles);
}

namespace
{

/** First `count` dotnet profiles, shrunk for test budgets. */
std::vector<wl::WorkloadProfile>
chaosSlice(std::size_t count)
{
    auto all = wl::suiteProfiles(wl::Suite::DotNet);
    all.resize(std::min(count, all.size()));
    for (auto &p : all)
        p.instructions = 60'000;
    return all;
}

RunOptions
chaosOptions()
{
    RunOptions o;
    o.warmupInstructions = 60'000;
    o.measuredInstructions = 60'000;
    return o;
}

} // namespace

TEST(ResilienceTest, CharacterizerRejectsInvalidMachineConfig)
{
    auto cfg = sim::MachineConfig::intelCoreI99980Xe();
    cfg.l1d.associativity = 0;
    EXPECT_THROW(Characterizer{cfg}, std::invalid_argument);
}

TEST(ResilienceTest, WatchdogKillsOverBudgetRun)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    auto o = quickOptions();
    o.runBudgetCycles = 10'000; // far below what the run needs
    EXPECT_THROW(ch.run(quickProfile(), o), RunBudgetExceeded);
    // A generous budget never trips.
    o.runBudgetCycles = 1'000'000'000;
    EXPECT_NO_THROW(ch.run(quickProfile(), o));
}

TEST(ResilienceTest, ScreenRunResultFlagsNonFiniteFields)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    auto r = ch.run(quickProfile(), quickOptions());
    EXPECT_TRUE(screenRunResult(r).empty());
    r.metrics[static_cast<std::size_t>(MetricId::Cpi)] =
        std::numeric_limits<double>::quiet_NaN();
    const auto msg = screenRunResult(r);
    EXPECT_NE(msg.find("non-finite"), std::string::npos);
}

TEST(ResilienceTest, ChaosLedgerIsByteIdenticalAcrossJobs)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profiles = chaosSlice(10);
    const auto chaos = FaultPlan::parse("rate=0.3,seed=7");

    auto sweep = [&](unsigned jobs) {
        Parallelism par;
        par.jobs = jobs;
        par.maxAttempts = 2;
        par.resilience.chaos = &chaos;
        SuiteRunStats stats;
        ch.runAll(profiles, chaosOptions(), par, &stats);
        return stats;
    };
    const auto serial = sweep(1);
    const auto parallel = sweep(4);

    // rate=0.3 over 10 benchmarks x 2 attempts must hit something.
    EXPECT_FALSE(serial.failures.empty());
    EXPECT_EQ(failureLedgerCsv(serial), failureLedgerCsv(parallel));
    EXPECT_EQ(failureLedgerJson(serial),
              failureLedgerJson(parallel));
}

TEST(ResilienceTest, KeepGoingReturnsSurvivorRows)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profiles = chaosSlice(8);
    const auto chaos = FaultPlan::parse("rate=0.4,seed=3");
    Parallelism par;
    par.jobs = 2;
    par.maxAttempts = 1;
    par.resilience.chaos = &chaos;
    SuiteRunStats stats;
    const auto results =
        ch.runAll(profiles, chaosOptions(), par, &stats);
    ASSERT_EQ(results.size(), profiles.size());
    ASSERT_EQ(stats.runs.size(), profiles.size());
    EXPECT_GT(stats.failedRuns(), 0u);
    EXPECT_LT(stats.failedRuns(), profiles.size());
    EXPECT_EQ(stats.skippedRuns(), 0u);
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        if (stats.runs[i].succeeded) {
            EXPECT_GT(results[i].counters.instructions, 0u);
            EXPECT_TRUE(screenRunResult(results[i]).empty());
        } else {
            EXPECT_EQ(results[i].counters.instructions, 0u);
        }
    }
}

TEST(ResilienceTest, FailFastSkipsPendingRuns)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profiles = chaosSlice(6);
    const auto chaos = FaultPlan::parse("rate=1,kinds=throw,seed=5");
    Parallelism par;
    par.jobs = 1; // serial: runs 2..N are provably after the failure
    par.maxAttempts = 1;
    par.resilience.chaos = &chaos;
    par.resilience.keepGoing = false;
    SuiteRunStats stats;
    ch.runAll(profiles, chaosOptions(), par, &stats);
    EXPECT_EQ(stats.skippedRuns(), profiles.size() - 1);
    EXPECT_FALSE(stats.runs[0].succeeded);
    EXPECT_FALSE(stats.runs[0].skipped);
    for (std::size_t i = 1; i < profiles.size(); ++i)
        EXPECT_TRUE(stats.runs[i].skipped) << "run " << i;
    // Skips land in the ledger as attempt-0 "skipped" rows.
    bool skip_row = false;
    for (const auto &f : stats.failures)
        if (f.kind == "skipped" && f.attempt == 0)
            skip_row = true;
    EXPECT_TRUE(skip_row);
}

TEST(ResilienceTest, QuarantineForfeitsRemainingAttempts)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profiles = chaosSlice(2);
    const auto chaos = FaultPlan::parse("rate=1,kinds=throw,seed=9");
    Parallelism par;
    par.jobs = 1;
    par.maxAttempts = 5;
    par.resilience.chaos = &chaos;
    par.resilience.quarantineAfter = 2;
    SuiteRunStats stats;
    ch.runAll(profiles, chaosOptions(), par, &stats);
    ASSERT_EQ(stats.runs.size(), 2u);
    ASSERT_EQ(stats.quarantined.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_FALSE(stats.runs[i].succeeded);
        EXPECT_TRUE(stats.runs[i].quarantined);
        EXPECT_EQ(stats.runs[i].attempts, 2u); // not 5
        EXPECT_EQ(stats.quarantined[i], profiles[i].name);
    }
}

TEST(ResilienceTest, RetryClearsATransientFault)
{
    // Find a (benchmark, seed) pair whose injected fault fires on
    // attempt 1 but not attempt 2 — the transient-failure shape.
    const auto cfg = sim::MachineConfig::intelCoreI99980Xe();
    const auto profiles = chaosSlice(1);
    const std::string &name = profiles[0].name;
    FaultPlan chaos;
    bool found = false;
    for (std::uint64_t seed = 1; seed < 200 && !found; ++seed) {
        chaos = FaultPlan::parse("rate=0.5,kinds=throw,seed=" +
                                 std::to_string(seed));
        found = chaos.decide(name, cfg.name, 1) &&
                !chaos.decide(name, cfg.name, 2);
    }
    ASSERT_TRUE(found);
    Characterizer ch(cfg);
    Parallelism par;
    par.maxAttempts = 2;
    par.resilience.chaos = &chaos;
    par.resilience.backoffBaseMicros = 1;
    SuiteRunStats stats;
    const auto results =
        ch.runAll(profiles, chaosOptions(), par, &stats);
    ASSERT_EQ(stats.runs.size(), 1u);
    EXPECT_TRUE(stats.runs[0].succeeded);
    EXPECT_EQ(stats.runs[0].attempts, 2u);
    EXPECT_GT(results[0].counters.instructions, 0u);
    // The failed first attempt is in the ledger with its backoff.
    ASSERT_EQ(stats.failures.size(), 1u);
    EXPECT_EQ(stats.failures[0].kind, "throw");
    EXPECT_EQ(stats.failures[0].attempt, 1u);
    EXPECT_EQ(stats.failures[0].backoffMicros, 1u);
}

TEST(ResilienceTest, BackoffScheduleDoublesAndSaturates)
{
    EXPECT_EQ(retryBackoffMicros(1000, 1), 0u);
    EXPECT_EQ(retryBackoffMicros(0, 5), 0u);
    EXPECT_EQ(retryBackoffMicros(1000, 2), 1000u);
    EXPECT_EQ(retryBackoffMicros(1000, 3), 2000u);
    EXPECT_EQ(retryBackoffMicros(1000, 8), 64000u);
    EXPECT_EQ(retryBackoffMicros(1000, 9), kMaxBackoffMicros);
    EXPECT_EQ(retryBackoffMicros(1, 1000000), kMaxBackoffMicros);
    // A base whose doubling would wrap past 2^64 still saturates.
    const std::uint64_t huge = 9223372036854775813ULL;
    for (unsigned attempt = 2; attempt < 70; ++attempt)
        EXPECT_EQ(retryBackoffMicros(huge, attempt), kMaxBackoffMicros)
            << "attempt " << attempt;
}

TEST(ResilienceTest, HugeBackoffBaseLedgersTheCap)
{
    // Every attempt throws; each retried attempt records the capped
    // backoff in the ledger, never a wrapped shift.
    const auto cfg = sim::MachineConfig::intelCoreI99980Xe();
    Characterizer ch(cfg);
    const auto profiles = chaosSlice(1);
    const auto chaos = FaultPlan::parse("rate=1,kinds=throw,seed=9");
    Parallelism par;
    par.maxAttempts = 3;
    par.resilience.chaos = &chaos;
    par.resilience.backoffBaseMicros = 9223372036854775813ULL;
    SuiteRunStats stats;
    ch.runAll(profiles, chaosOptions(), par, &stats);
    ASSERT_EQ(stats.failures.size(), 3u);
    EXPECT_EQ(stats.failures[0].backoffMicros, kMaxBackoffMicros);
    EXPECT_EQ(stats.failures[1].backoffMicros, kMaxBackoffMicros);
    EXPECT_EQ(stats.failures[2].backoffMicros, 0u); // no retry left
}

TEST(ResilienceTest, StallFaultIsKilledByTheWatchdog)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profiles = chaosSlice(1);
    const auto chaos = FaultPlan::parse("rate=1,kinds=stall,seed=2");
    Parallelism par;
    par.maxAttempts = 1;
    par.resilience.chaos = &chaos;
    auto o = chaosOptions();
    o.runBudgetCycles = 500'000;
    SuiteRunStats stats;
    ch.runAll(profiles, o, par, &stats);
    ASSERT_EQ(stats.failures.size(), 1u);
    EXPECT_EQ(stats.failures[0].kind, "stall");
    EXPECT_NE(stats.failures[0].error.find("budget"),
              std::string::npos);
}

TEST(ResilienceTest, CorruptCounterIsCaughtByScreening)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profiles = chaosSlice(1);
    const auto chaos =
        FaultPlan::parse("rate=1,kinds=corrupt,seed=2");
    Parallelism par;
    par.maxAttempts = 1;
    par.resilience.chaos = &chaos;
    SuiteRunStats stats;
    const auto results =
        ch.runAll(profiles, chaosOptions(), par, &stats);
    ASSERT_EQ(stats.failures.size(), 1u);
    EXPECT_EQ(stats.failures[0].kind, "corrupt");
    EXPECT_NE(stats.failures[0].error.find("non-finite"),
              std::string::npos);
    // The corrupted row never reaches the caller.
    EXPECT_EQ(results[0].counters.instructions, 0u);
}

TEST(ResilienceTest, TraceExhaustDegradesGracefully)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profiles = chaosSlice(2);
    const auto chaos = FaultPlan::parse("rate=1,kinds=trace,seed=6");
    Parallelism par;
    par.maxAttempts = 1;
    par.resilience.chaos = &chaos;
    SuiteRunStats stats;
    const auto captures = ch.captureAll(profiles, chaosOptions(), {},
                                        par, &stats);
    // Exhaustion is degradation, not failure: every capture succeeds
    // with its rings clamped to the injected tiny capacity.
    EXPECT_EQ(stats.failedRuns(), 0u);
    ASSERT_EQ(captures.size(), 2u);
    for (const auto &c : captures) {
        EXPECT_LE(c.trace.samples.capacity(), 32u);
        EXPECT_GT(c.result.counters.instructions, 0u);
    }
}

TEST(ResilienceTest, SuiteStatsJsonCarriesResilienceFields)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profiles = chaosSlice(2);
    const auto chaos = FaultPlan::parse("rate=1,kinds=throw,seed=9");
    Parallelism par;
    par.maxAttempts = 1;
    par.resilience.chaos = &chaos;
    par.resilience.quarantineAfter = 1;
    SuiteRunStats stats;
    ch.runAll(profiles, chaosOptions(), par, &stats);
    const auto json = suiteStatsJson(stats);
    EXPECT_NE(json.find("\"skipped_runs\":0"), std::string::npos);
    EXPECT_NE(json.find("\"quarantined\":["), std::string::npos);
    EXPECT_NE(json.find("\"quarantined\":true"), std::string::npos);
}

TEST(CorrelationTest, SeriesExtraction)
{
    std::vector<IntervalSample> samples(3);
    for (std::size_t i = 0; i < 3; ++i) {
        samples[i].counters.instructions = 1000;
        samples[i].counters.llcMisses = (i + 1) * 10;
        samples[i].counters.cycles = 2000.0;
        samples[i].events.jitStarted = i;
    }
    const auto llc =
        extractSeries(samples, CounterSeries::LlcMpki);
    EXPECT_DOUBLE_EQ(llc[0], 10.0);
    EXPECT_DOUBLE_EQ(llc[2], 30.0);
    const auto ipc = extractSeries(samples, CounterSeries::Ipc);
    EXPECT_DOUBLE_EQ(ipc[0], 0.5);
    const auto jits = extractEventSeries(
        samples, rt::RuntimeEventType::JitStarted);
    EXPECT_DOUBLE_EQ(jits[2], 2.0);
}

TEST(CorrelationTest, PerfectlyCoupledSeriesCorrelate)
{
    std::vector<IntervalSample> samples(8);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        samples[i].counters.instructions = 1000;
        samples[i].counters.llcMisses = 5 * i;
        samples[i].events.jitStarted = i;
    }
    const auto rows = correlateEvents(
        samples, rt::RuntimeEventType::JitStarted);
    bool found = false;
    for (const auto &row : rows) {
        if (row.series == CounterSeries::LlcMpki) {
            EXPECT_NEAR(row.r, 1.0, 1e-9);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(CorrelationTest, EndToEndJitCorrelationIsPositive)
{
    // §VII-A1: with a big heap (GC suppressed), JIT-start events
    // correlate positively with LLC MPKI and page faults.
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    auto p = *wl::findProfile("Plaintext");
    p.tierUpCallThreshold = 40;
    RunOptions o;
    o.warmupInstructions = 200'000;
    o.maxHeapBytes = 512ULL << 20;
    // Fig 13a's path: one capture over a fixed cycle span, re-sliced
    // into 40 intervals of 25k cycles (4 spare for chunk overshoot).
    const double interval = 25'000.0;
    TraceOptions topts;
    topts.measuredCycles = interval * (40 + 4);
    const auto cap = ch.capture(p, o, topts);
    const auto samples =
        trace::TraceAnalyzer(cap.trace).reslice(interval, 40);
    ASSERT_EQ(samples.size(), 40u);
    const auto rows =
        correlateEvents(samples, rt::RuntimeEventType::JitStarted);
    double llc_r = 0.0, pf_r = 0.0;
    for (const auto &row : rows) {
        if (row.series == CounterSeries::LlcMpki)
            llc_r = row.r;
        if (row.series == CounterSeries::PageFaultsPki)
            pf_r = row.r;
    }
    EXPECT_GT(llc_r, 0.1);
    EXPECT_GT(pf_r, 0.1);
}
