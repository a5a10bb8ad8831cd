/**
 * Golden behaviour digests for the characterizer: every measurement
 * path (run, capture, sampleCycles and the resilient
 * runAll/captureAll sweeps under chaos) is rendered bit-exactly —
 * every counter, slot, runtime event, metric and timing field as a
 * hex float or integer — and pinned by its 128-bit content hash.
 *
 * A deliberate behaviour change must re-record the constants in the
 * same change and say so; any other drift is a regression. On a
 * mismatch the full rendering is printed so the drifting field can
 * be found by diffing against the previous one.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "core/characterize.hh"
#include "core/export.hh"
#include "stats/hash.hh"
#include "trace/export_trace.hh"
#include "workloads/registry.hh"

using namespace netchar;

namespace
{

void
put(std::string &out, const char *name, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    out += name;
    out += '=';
    out += buf;
    out += ' ';
}

void
put(std::string &out, const char *name, std::uint64_t v)
{
    out += name;
    out += '=';
    out += std::to_string(v);
    out += ' ';
}

std::string
render(const sim::PerfCounters &c)
{
    std::string s = "counters: ";
    put(s, "instructions", c.instructions);
    put(s, "kernelInstructions", c.kernelInstructions);
    put(s, "branches", c.branches);
    put(s, "loads", c.loads);
    put(s, "stores", c.stores);
    put(s, "cycles", c.cycles);
    put(s, "branchMisses", c.branchMisses);
    put(s, "btbMisses", c.btbMisses);
    put(s, "l1dMisses", c.l1dMisses);
    put(s, "l1iMisses", c.l1iMisses);
    put(s, "l2Misses", c.l2Misses);
    put(s, "llcMisses", c.llcMisses);
    put(s, "itlbMisses", c.itlbMisses);
    put(s, "dtlbLoadMisses", c.dtlbLoadMisses);
    put(s, "dtlbStoreMisses", c.dtlbStoreMisses);
    put(s, "memReadBytes", c.memReadBytes);
    put(s, "memWriteBytes", c.memWriteBytes);
    put(s, "dramAccesses", c.dramAccesses);
    put(s, "dramRowMisses", c.dramRowMisses);
    put(s, "pageFaults", c.pageFaults);
    put(s, "prefetchesIssued", c.prefetchesIssued);
    put(s, "prefetchesUseful", c.prefetchesUseful);
    put(s, "prefetchesUseless", c.prefetchesUseless);
    return s + '\n';
}

std::string
render(const sim::SlotAccount &a)
{
    std::string s = "slots: ";
    for (std::size_t i = 0; i < a.slots.size(); ++i)
        put(s, std::string(slotNodeName(static_cast<sim::SlotNode>(i)))
                   .c_str(),
            a.slots[i]);
    return s + '\n';
}

std::string
render(const rt::RuntimeEventCounts &e)
{
    std::string s = "events: ";
    put(s, "gcTriggered", e.gcTriggered);
    put(s, "gcAllocationTick", e.gcAllocationTick);
    put(s, "jitStarted", e.jitStarted);
    put(s, "exceptionStart", e.exceptionStart);
    put(s, "contentionStart", e.contentionStart);
    return s + '\n';
}

std::string
render(const RunResult &r)
{
    std::string s = render(r.counters) + render(r.slots) +
                    render(r.events) + "metrics: ";
    for (std::size_t m = 0; m < kNumMetrics; ++m)
        put(s, std::string(metricTable()[m].name).c_str(),
            r.metrics[m]);
    s += "\ntiming: ";
    put(s, "seconds", r.seconds);
    put(s, "instructionsPerSecond", r.instructionsPerSecond);
    return s + '\n';
}

std::string
render(const std::vector<IntervalSample> &samples)
{
    std::string s;
    for (std::size_t i = 0; i < samples.size(); ++i)
        s += "sample " + std::to_string(i) + '\n' +
             render(samples[i].counters) + render(samples[i].slots) +
             render(samples[i].events);
    return s;
}

std::string
render(const CaptureResult &c)
{
    return render(c.result) + "traceCsv: " +
           contentHashHex(trace::traceCsv(c.trace)) +
           "\nchromeTraceJson: " +
           contentHashHex(trace::chromeTraceJson(c.trace)) + '\n';
}

/** The deterministic half of a sweep's stats: no wall times or
 *  worker ids, which depend on the host. */
std::string
render(const SuiteRunStats &stats)
{
    std::string s = "ledger:\n" + failureLedgerCsv(stats) + "runs:\n";
    for (const auto &r : stats.runs)
        s += std::to_string(r.index) + ',' + r.benchmark + ',' +
             std::to_string(r.attempts) + ',' +
             (r.succeeded ? "ok" : "failed") +
             (r.skipped ? ",skipped" : "") +
             (r.quarantined ? ",quarantined" : "") + ',' + r.error +
             '\n';
    s += "quarantined:";
    for (const auto &q : stats.quarantined)
        s += ' ' + q;
    return s + '\n';
}

void
expectDigest(const std::string &rendering, const char *golden)
{
    EXPECT_EQ(contentHashHex(rendering), golden)
        << "rendering:\n"
        << rendering;
}

RunOptions
small()
{
    RunOptions o;
    o.warmupInstructions = 20'000;
    o.measuredInstructions = 40'000;
    return o;
}

wl::WorkloadProfile
profile(const char *name)
{
    const auto p = wl::findProfile(name);
    EXPECT_TRUE(p.has_value()) << name;
    return p.value_or(wl::WorkloadProfile{});
}

/**
 * A short mixed list across the three suites. The SPEC picks have
 * small data footprints: a memory-bound profile such as mcf spends
 * ~0.5-1 s building its footprint, which would dominate the test.
 */
std::vector<wl::WorkloadProfile>
sweepProfiles()
{
    std::vector<wl::WorkloadProfile> out;
    for (const char *name :
         {"SeekUnroll", "System.Runtime", "System.Linq", "Plaintext",
          "Json", "deepsjeng", "leela", "exchange2"})
        out.push_back(profile(name));
    return out;
}

} // namespace

TEST(GoldenDigest, RunOnEveryMachineAndSuite)
{
    const sim::MachineConfig machines[] = {
        sim::MachineConfig::intelCoreI99980Xe(),
        sim::MachineConfig::intelXeonE52620V4(),
        sim::MachineConfig::armServer(),
    };
    std::string s;
    for (const auto &config : machines) {
        const Characterizer ch(config);
        for (const char *name : {"SeekUnroll", "Plaintext", "deepsjeng"})
            s += config.name + ' ' + name + '\n' +
                 render(ch.run(profile(name), small()));
    }
    expectDigest(s, "178af8dd5f1f4da5a3a2a62df428165d");
}

TEST(GoldenDigest, JitHintAndTwoCores)
{
    const Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    RunOptions jit = small();
    jit.jitHint = true;
    RunOptions two = small();
    two.cores = 2;
    expectDigest(render(ch.run(profile("SeekUnroll"), jit)) +
                     render(ch.run(profile("Plaintext"), two)),
                 "7562985befc97abd91564371d3edb946");
}

TEST(GoldenDigest, CaptureByInstructionsAndByCycles)
{
    const Characterizer ch(sim::MachineConfig::intelXeonE52620V4());
    TraceOptions cycles;
    cycles.measuredCycles = 60'000.0;
    expectDigest(render(ch.capture(profile("Plaintext"), small())) +
                     render(ch.capture(profile("SeekUnroll"), small(),
                                       cycles)),
                 "23b6ead4f2185e755a12696b43538bd3");
}

TEST(GoldenDigest, SampleCycles)
{
    const Characterizer ch(sim::MachineConfig::armServer());
    expectDigest(render(ch.sampleCycles(profile("System.Linq"), small(),
                                        15'000.0, 4)),
                 "83a0db5ddaa3bf96e63467b2271bf275");
}

TEST(GoldenDigest, ChaosRunAllKeepGoing)
{
    const Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const FaultPlan plan = FaultPlan::parse("rate=0.5,seed=11");
    RunOptions o = small();
    o.runBudgetCycles = 400'000;
    Parallelism par;
    par.jobs = 2;
    par.maxAttempts = 3;
    par.resilience.quarantineAfter = 2;
    par.resilience.chaos = &plan;
    SuiteRunStats stats;
    const auto results = ch.runAll(sweepProfiles(), o, par, &stats);
    std::string s;
    for (const auto &r : results)
        s += render(r);
    expectDigest(s + render(stats), "22c4a551b6bef96aef7593e37ee2115f");
}

TEST(GoldenDigest, ChaosRunAllFailFast)
{
    const Characterizer ch(sim::MachineConfig::armServer());
    const FaultPlan plan = FaultPlan::parse("rate=0.4,seed=32");
    Parallelism par;
    par.maxAttempts = 1;
    par.resilience.keepGoing = false;
    par.resilience.chaos = &plan;
    SuiteRunStats stats;
    const auto results = ch.runAll(sweepProfiles(), small(), par, &stats);
    std::string s;
    for (const auto &r : results)
        s += render(r);
    expectDigest(s + render(stats), "d16fd9398f969d53ff61db886e1fe7d0");
}

TEST(GoldenDigest, ChaosCaptureAllWithRunBudget)
{
    const Characterizer ch(sim::MachineConfig::intelXeonE52620V4());
    const FaultPlan plan =
        FaultPlan::parse("rate=0.6,kinds=throw+nan+stall+trace,seed=3");
    RunOptions o = small();
    o.runBudgetCycles = 400'000;
    TraceOptions topts;
    topts.bufferEvents = 4096;
    Parallelism par;
    par.jobs = 2;
    par.resilience.chaos = &plan;
    SuiteRunStats stats;
    const auto captures =
        ch.captureAll(sweepProfiles(), o, topts, par, &stats);
    std::string s;
    for (const auto &c : captures)
        s += render(c);
    expectDigest(s + render(stats), "ffe716ad8042ade9840e1bc44adb1229");
}

TEST(GoldenDigest, ChaosSweepsMatchAtOneAndFourJobs)
{
    // The two chaos sweeps above, at other job counts: results land
    // at their input index, so the digests must not move.
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        {
            const Characterizer ch(
                sim::MachineConfig::intelCoreI99980Xe());
            const FaultPlan plan = FaultPlan::parse("rate=0.5,seed=11");
            RunOptions o = small();
            o.runBudgetCycles = 400'000;
            Parallelism par;
            par.jobs = jobs;
            par.maxAttempts = 3;
            par.resilience.quarantineAfter = 2;
            par.resilience.chaos = &plan;
            SuiteRunStats stats;
            const auto results =
                ch.runAll(sweepProfiles(), o, par, &stats);
            std::string s;
            for (const auto &r : results)
                s += render(r);
            expectDigest(s + render(stats),
                         "22c4a551b6bef96aef7593e37ee2115f");
        }
        {
            const Characterizer ch(
                sim::MachineConfig::intelXeonE52620V4());
            const FaultPlan plan = FaultPlan::parse(
                "rate=0.6,kinds=throw+nan+stall+trace,seed=3");
            RunOptions o = small();
            o.runBudgetCycles = 400'000;
            TraceOptions topts;
            topts.bufferEvents = 4096;
            Parallelism par;
            par.jobs = jobs;
            par.resilience.chaos = &plan;
            SuiteRunStats stats;
            const auto captures =
                ch.captureAll(sweepProfiles(), o, topts, par, &stats);
            std::string s;
            for (const auto &c : captures)
                s += render(c);
            expectDigest(s + render(stats),
                         "ffe716ad8042ade9840e1bc44adb1229");
        }
    }
}

TEST(GoldenDigest, ChaosFailFastMatchesAtTwoAndFourJobs)
{
    // ChaosRunAllFailFast's sweep at other job counts. Its first
    // permanent failure (Json, index 4) fails at once, while other
    // executors still run or have not yet started their blocks; the
    // runs above it are skipped and the ones below it run all the
    // same, so the digest must not move.
    for (const unsigned jobs : {2u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        const Characterizer ch(sim::MachineConfig::armServer());
        const FaultPlan plan = FaultPlan::parse("rate=0.4,seed=32");
        Parallelism par;
        par.jobs = jobs;
        par.maxAttempts = 1;
        par.resilience.keepGoing = false;
        par.resilience.chaos = &plan;
        SuiteRunStats stats;
        const auto results =
            ch.runAll(sweepProfiles(), small(), par, &stats);
        std::string s;
        for (const auto &r : results)
            s += render(r);
        expectDigest(s + render(stats),
                     "d16fd9398f969d53ff61db886e1fe7d0");
    }
}
