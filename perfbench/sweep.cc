/**
 * @file
 * Sweep workloads: `netchar subset dotnet` and `netchar suite spec`
 * as library calls. One operation is one characterization; the
 * untraced run makes whole passes over the suite so every run of the
 * benchmark weighs each profile equally.
 *
 * The traced run alternates runAll sweeps (2 jobs) with replays of
 * every characterization through replayRun(), which must reproduce
 * the sweep's output byte for byte.
 */

#include <cstdio>
#include <memory>

#include "core/executor.hh"
#include "core/export.hh"
#include "core/subset.hh"
#include "replay.hh"
#include "sim/machine.hh"
#include "stats/hash.hh"
#include "workloads.hh"
#include "workloads/registry.hh"
#include "workloads/synth.hh"

namespace perfbench
{

using namespace netchar;

ReplayRun
replayRun(const sim::MachineConfig &config, wl::WorkloadProfile profile,
          const RunOptions &options, Tracer *tracer, std::uint64_t op)
{
    profile.allocBytesPerInst *= options.allocScale;
    if (profile.managed && profile.maxHeapBytes < profile.dataFootprint)
        profile.dataFootprint = profile.maxHeapBytes;
    profile.validate();

    std::unique_ptr<sim::Machine> machine;
    {
        Scoped s(tracer, "sim.machine_build", op);
        machine = std::make_unique<sim::Machine>(config, options.cores,
                                                 options.seed, options.noc);
        machine->setJitHintEnabled(options.jitHint);
    }
    const wl::SpreadFactors spread{config.codeSpreadFactor,
                                   config.dataSpreadFactor};
    std::shared_ptr<rt::Clr> clr;
    if (profile.managed) {
        Scoped s(tracer, "runtime.clr_build", op);
        clr = wl::SynthWorkload::makeClr(profile, profile.seed ^ options.seed,
                                         spread);
    }
    std::vector<std::unique_ptr<wl::SynthWorkload>> cores;
    {
        Scoped s(tracer, "workloads.synth_build", op);
        for (unsigned c = 0; c < machine->coreCount(); ++c)
            cores.push_back(std::make_unique<wl::SynthWorkload>(
                profile, options.seed * 1000003ULL + c, clr, spread));
    }
    const auto advance = [&](std::uint64_t count) {
        Scoped s(tracer, "sim.run", op);
        for (std::uint64_t done = 0; done < count;) {
            const std::uint64_t step =
                std::min<std::uint64_t>(options.quantum, count - done);
            for (unsigned c = 0; c < machine->coreCount(); ++c)
                cores[c]->run(machine->core(c), step);
            done += step;
        }
    };

    advance(options.warmupInstructions);
    const auto snapCounters = machine->totalCounters();
    const auto snapSlots = machine->totalSlots();
    const auto snapEvents = clr ? clr->trace().counts()
                                : rt::RuntimeEventCounts{};
    const double snapSeconds = machine->seconds();
    advance(options.measuredInstructions > 0 ? options.measuredInstructions
                                             : profile.instructions);

    ReplayRun out;
    RunResult &r = out.result;
    r.counters = machine->totalCounters().delta(snapCounters);
    r.slots = machine->totalSlots().delta(snapSlots);
    r.events = clr ? clr->trace().counts().delta(snapEvents)
                   : rt::RuntimeEventCounts{};
    r.seconds = machine->seconds() - snapSeconds;
    {
        Scoped s(tracer, "core.metrics", op);
        r.metrics = computeMetrics(r.counters, r.events, profile.cpuUtil,
                                   r.seconds);
    }
    r.instructionsPerSecond =
        r.seconds > 0.0
            ? static_cast<double>(r.counters.instructions) / r.seconds
            : 0.0;
    out.allInstructions = machine->totalCounters().instructions;
    return out;
}

void
setSimLayerMetrics(Outcome &out, const std::vector<Span> &spans,
                   const std::vector<ReplayRun> &runs, std::size_t passes,
                   double busySeconds)
{
    const double ops = static_cast<double>(runs.size() * passes);
    double simSeconds = 0.0;
    for (const auto &[name, self] : selfTimeByName(spans)) {
        if (name == "sim.machine_build")
            out.set("sim.machine_build_ms", "ms", 1e3 * self / ops);
        else if (name == "runtime.clr_build")
            out.set("runtime.clr_build_ms", "ms", 1e3 * self / ops);
        else if (name == "workloads.synth_build")
            out.set("workloads.synth_build_ms", "ms", 1e3 * self / ops);
        else if (name == "core.metrics")
            out.set("core.metrics_us", "us", 1e6 * self / ops);
        else if (name == "sim.run")
            simSeconds = self;
    }

    sim::PerfCounters c;
    rt::RuntimeEventCounts ev;
    double allInstructions = 0.0;
    for (const ReplayRun &r : runs) {
        const sim::PerfCounters &k = r.result.counters;
        c.instructions += k.instructions;
        c.kernelInstructions += k.kernelInstructions;
        c.l1iMisses += k.l1iMisses;
        c.l1dMisses += k.l1dMisses;
        c.l2Misses += k.l2Misses;
        c.llcMisses += k.llcMisses;
        c.itlbMisses += k.itlbMisses;
        c.dtlbLoadMisses += k.dtlbLoadMisses + k.dtlbStoreMisses;
        c.pageFaults += k.pageFaults;
        c.dramAccesses += k.dramAccesses;
        c.prefetchesIssued += k.prefetchesIssued;
        c.branchMisses += k.branchMisses;
        ev.gcTriggered += r.result.events.gcTriggered;
        ev.jitStarted += r.result.events.jitStarted;
        allInstructions += static_cast<double>(r.allInstructions);
    }
    const auto count = [&](const char *name, std::uint64_t v) {
        out.set(name, "count", static_cast<double>(v));
    };
    count("sim.instructions", c.instructions);
    count("sim.kernel_instructions", c.kernelInstructions);
    count("sim.l1i_misses", c.l1iMisses);
    count("sim.l1d_misses", c.l1dMisses);
    count("sim.l2_misses", c.l2Misses);
    count("sim.llc_misses", c.llcMisses);
    count("sim.itlb_misses", c.itlbMisses);
    count("sim.dtlb_misses", c.dtlbLoadMisses);
    count("sim.page_faults", c.pageFaults);
    count("sim.dram_accesses", c.dramAccesses);
    count("sim.prefetches_issued", c.prefetchesIssued);
    count("sim.branch_misses", c.branchMisses);
    count("runtime.gc_triggered", ev.gcTriggered);
    count("runtime.jit_started", ev.jitStarted);

    const double instructions =
        allInstructions * static_cast<double>(passes);
    out.set("sim.run_s", "s", simSeconds / ops);
    out.set("sim.run_ns_per_inst", "ns", 1e9 * simSeconds / instructions);
    out.set("sim.minstr_per_s", "Minstr/s",
            instructions / busySeconds / 1e6);
}

namespace
{

constexpr unsigned kJobs = 2;
constexpr std::size_t kSubsetSize = 8;

struct SweepSpec
{
    const char *name;
    wl::Suite suite;
    /** Follow the sweep with buildSubset (the Table IV path). */
    bool subset;
};

/** Bytes a user would diff: the CSV, plus the representatives. */
std::string
sweepOutput(const SweepSpec &spec,
            const std::vector<wl::WorkloadProfile> &profiles,
            const std::vector<RunResult> &results, Tracer *tracer,
            std::uint64_t op)
{
    std::vector<std::string> names;
    for (const auto &p : profiles)
        names.push_back(p.name);
    std::string out;
    {
        Scoped s(tracer, "core.export", op);
        out = metricsCsv(names, results);
    }
    if (!spec.subset)
        return out;
    std::vector<MetricVector> rows;
    for (const RunResult &r : results)
        rows.push_back(r.metrics);
    SubsetOptions sopts;
    sopts.subsetSize = kSubsetSize;
    SubsetResult subset;
    {
        Scoped s(tracer, "stats.subset", op);
        subset = buildSubset(rows, sopts);
    }
    for (std::size_t c = 0; c < subset.clusters.size(); ++c)
        out += "# " + names[subset.representatives[c]] + "  (cluster of " +
               std::to_string(subset.clusters[c].size()) + ")\n";
    return out;
}

RunOptions
sweepOptions(const RunArgs &args)
{
    RunOptions o;
    o.seed = args.seed;
    if (args.quick) {
        o.warmupInstructions = 20'000;
        o.measuredInstructions = 40'000;
    }
    return o;
}

/** Set-up: the discarded first characterization (§III-A's warm-up
 *  run), repeated; lazy one-time costs land here, not in the ops. */
SetupCost
measureSetup(Outcome &out, const Characterizer &ch,
             const wl::WorkloadProfile &first, const RunOptions &options)
{
    SetupCost setup;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const double t0 = threadCpuSeconds();
        const RunResult r = ch.run(first, options);
        setup.add(threadCpuSeconds() - t0);
        if (!screenRunResult(r).empty())
            out.fail("warm-up run: " + screenRunResult(r));
    }
    return setup;
}

/** One runAll sweep (kJobs jobs); returns its output bytes. */
std::string
untracedSweep(Outcome &out, const SweepSpec &spec, const Characterizer &ch,
              const std::vector<wl::WorkloadProfile> &profiles,
              const RunOptions &options, SuiteRunStats &stats)
{
    Parallelism par;
    par.jobs = kJobs;
    const auto results = ch.runAll(profiles, options, par, &stats);
    out.attempted += stats.runs.size();
    for (const RunLedgerEntry &e : stats.runs)
        if (!e.succeeded || e.attempts != 1)
            out.fail("run " + e.benchmark + ": " + e.error);
    return sweepOutput(spec, profiles, results, nullptr, 0);
}

/**
 * Whole passes over the suite, one Characterizer::run at a time on
 * this thread, so its CPU clock times each and the host-speed
 * reference runs between them on the same thread. The op cost is the
 * CPU per characterization over whole passes: a median across
 * profiles would ignore a change to all but the middle ones. Runs are
 * byte-identical at any job count, so the output matches runAll's.
 */
void
runUntraced(Outcome &out, const SweepSpec &spec, const RunArgs &args,
            const Characterizer &ch,
            const std::vector<wl::WorkloadProfile> &profiles,
            const RunOptions &options, const SetupCost &setup)
{
    HostSpeed speed;
    std::string reference;
    double cpu = 0.0;
    std::size_t passes = 0;
    const double start = steadySeconds();
    // Another pass only when it fits in the window.
    while (passes == 0 || (steadySeconds() - start) *
                                  static_cast<double>(passes + 1) /
                                  static_cast<double>(passes) <=
                              args.seconds) {
        std::vector<RunResult> results;
        for (const wl::WorkloadProfile &profile : profiles) {
            const double c0 = threadCpuSeconds();
            results.push_back(ch.run(profile, options));
            const double used = threadCpuSeconds() - c0;
            cpu += used;
            speed.addWork(used);
            ++out.attempted;
            if (!screenRunResult(results.back()).empty())
                out.fail("run " + profile.name + ": " +
                         screenRunResult(results.back()));
        }
        const std::string output =
            sweepOutput(spec, profiles, results, nullptr, 0);
        if (reference.empty())
            reference = output;
        else if (output != reference)
            out.fail("a repeated pass changed its output bytes");
        ++passes;
    }
    const double runs = static_cast<double>(passes * profiles.size());
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%zu pass(es) of %zu characterizations: %.4f s wall "
                  "each, reference samples included",
                  passes, profiles.size(),
                  (steadySeconds() - start) / static_cast<double>(passes));
    out.note(line);
    setCostMetrics(out, cpu / runs, speed, setup);
    checkDigest(out, spec.name, args, contentHashHex(reference));
}

void
runTraced(Outcome &out, const SweepSpec &spec, const RunArgs &args,
          const Characterizer &ch,
          const std::vector<wl::WorkloadProfile> &profiles,
          const RunOptions &options)
{
    const std::size_t n = profiles.size();
    std::string reference;
    std::vector<Span> spans;
    std::vector<ReplayRun> runs(n);
    std::vector<double> untracedSeconds, tracedSeconds;
    std::size_t sweeps = 0;
    const double start = steadySeconds();
    // Untraced and traced sweeps alternate, so host drift lands on
    // both sides of the overhead figure.
    do {
        SuiteRunStats stats;
        double t0 = steadySeconds();
        const std::string output =
            untracedSweep(out, spec, ch, profiles, options, stats);
        untracedSeconds.push_back(steadySeconds() - t0);
        if (reference.empty()) {
            reference = output;
            out.set("core.executor_utilization", "frac",
                    stats.utilization());
            out.set("core.executor_steals", "count",
                    static_cast<double>(stats.steals));
        } else if (output != reference) {
            out.fail("a repeated sweep changed its output bytes");
        }

        // Op ids: n runs then the output stage, per sweep.
        const std::uint64_t base = sweeps * (n + 1);
        std::vector<std::vector<Span>> perRun(n);
        t0 = steadySeconds();
        Executor executor(kJobs);
        executor.forEach(n, [&](std::size_t i) {
            Tracer tracer;
            {
                Scoped root(&tracer, "bench.run", base + i);
                runs[i] = replayRun(ch.config(), profiles[i], options,
                                    &tracer, base + i);
            }
            perRun[i] = tracer.spans();
        });
        std::vector<RunResult> results;
        for (const ReplayRun &r : runs)
            results.push_back(r.result);
        Tracer tracer;
        std::string replayed;
        {
            Scoped root(&tracer, "bench.output", base + n);
            replayed =
                sweepOutput(spec, profiles, results, &tracer, base + n);
        }
        tracedSeconds.push_back(steadySeconds() - t0);
        for (const auto &s : perRun)
            appendSpans(spans, s);
        appendSpans(spans, tracer.spans());
        ++sweeps;
        out.attempted += n;
        if (replayed != reference)
            out.fail("traced replay output differs from runAll's");
    } while (steadySeconds() - start < args.seconds);

    double busySeconds = 0.0;
    for (const Span &s : spans)
        if (s.name == "bench.run")
            busySeconds += s.end - s.start;
    setSimLayerMetrics(out, spans, runs, sweeps, busySeconds);
    for (const auto &[name, self] : selfTimeByName(spans)) {
        if (name == "core.export")
            out.set("core.export_ms", "ms", 1e3 * self / sweeps);
        else if (name == "stats.subset")
            out.set("stats.subset_ms", "ms", 1e3 * self / sweeps);
    }
    const double traced = median(tracedSeconds);
    const double untraced = median(untracedSeconds);
    out.set("bench.unattributed_frac", "frac", unattributedFraction(spans));
    out.set("bench.trace_overhead_frac", "frac", traced / untraced - 1.0);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%zu sweep pair(s): %.3f s traced vs %.3f s untraced",
                  sweeps, traced, untraced);
    out.note(line);
    out.spans = std::move(spans);
}

Outcome
runSweep(const SweepSpec &spec, const RunArgs &args)
{
    Outcome out;
    const Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profiles = wl::suiteProfiles(spec.suite);
    const RunOptions options = sweepOptions(args);
    const SetupCost setup = measureSetup(out, ch, profiles.front(), options);
    if (args.trace)
        runTraced(out, spec, args, ch, profiles, options);
    else
        runUntraced(out, spec, args, ch, profiles, options, setup);
    return out;
}

} // namespace

Outcome
runSubsetDotnet(const RunArgs &args)
{
    return runSweep({"subset-dotnet", wl::Suite::DotNet, true}, args);
}

Outcome
runSuiteSpec(const RunArgs &args)
{
    return runSweep({"suite-spec", wl::Suite::SpecCpu17, false}, args);
}

} // namespace perfbench
