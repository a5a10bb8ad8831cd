#include "core/characterize.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/executor.hh"
#include "sim/machine.hh"
#include "stats/hostclock.hh"
#include "trace/recorder.hh"
#include "workloads/synth.hh"

namespace netchar
{

std::uint64_t
retryBackoffMicros(std::uint64_t base, unsigned attempt)
{
    if (base == 0 || attempt < 2)
        return 0;
    // Double only while under the cap: the product never overflows.
    std::uint64_t delay = base;
    for (unsigned k = 2; k < attempt && delay < kMaxBackoffMicros; ++k)
        delay *= 2;
    return std::min(delay, kMaxBackoffMicros);
}

Characterizer::Characterizer(sim::MachineConfig config)
    : config_(std::move(config))
{
    // Fail at construction, not inside run #1 of a 3000-run sweep.
    config_.validate();
}

wl::WorkloadProfile
Characterizer::applyOverrides(const wl::WorkloadProfile &p,
                              const RunOptions &o) const
{
    wl::WorkloadProfile out = p;
    if (o.gcMode)
        out.gcMode = *o.gcMode;
    if (o.gcAssist)
        out.gcAssist = *o.gcAssist;
    if (o.maxHeapBytes)
        out.maxHeapBytes = *o.maxHeapBytes;
    out.allocBytesPerInst *= o.allocScale;
    if (out.managed && out.maxHeapBytes < out.dataFootprint)
        out.dataFootprint = out.maxHeapBytes;
    out.validate();
    return out;
}

namespace
{

/** Machine + workload instances for one run. */
struct Rig
{
    std::unique_ptr<sim::Machine> machine;
    std::vector<std::unique_ptr<wl::SynthWorkload>> workloads;
    std::shared_ptr<rt::Clr> clr; // null for native
    /** Watchdog budget in simulated cycles (0 = disabled). */
    std::uint64_t budgetCycles = 0;

    /** Run `count` instructions on every core, interleaved. */
    void
    advance(std::uint64_t count, std::uint64_t quantum)
    {
        const unsigned n = machine->coreCount();
        std::uint64_t done = 0;
        while (done < count) {
            const std::uint64_t step =
                std::min<std::uint64_t>(quantum, count - done);
            for (unsigned c = 0; c < n; ++c)
                workloads[c]->run(machine->core(c), step);
            done += step;
            // Deterministic watchdog: trips on the same simulated
            // cycle on every host, at quantum granularity.
            if (budgetCycles > 0 &&
                machine->cycles() >
                    static_cast<double>(budgetCycles))
                throw RunBudgetExceeded(machine->cycles(),
                                        budgetCycles);
        }
    }

    /** Cumulative measurement state at one instant. */
    struct Snapshot
    {
        sim::PerfCounters counters;
        sim::SlotAccount slots;
        rt::RuntimeEventCounts events;
        double seconds = 0.0;
    };

    Snapshot
    snapshot() const
    {
        return {machine->totalCounters(), machine->totalSlots(),
                clr ? clr->trace().counts() : rt::RuntimeEventCounts{},
                machine->seconds()};
    }

    /** The measured window since `start`: deltas plus metrics. */
    RunResult
    resultSince(const Snapshot &start, double cpu_util) const
    {
        const Snapshot now = snapshot();
        RunResult result;
        result.counters = now.counters.delta(start.counters);
        result.slots = now.slots.delta(start.slots);
        result.events = now.events.delta(start.events);
        result.seconds = now.seconds - start.seconds;
        result.metrics = computeMetrics(result.counters, result.events,
                                        cpu_util, result.seconds);
        result.instructionsPerSecond = result.seconds > 0.0
            ? static_cast<double>(result.counters.instructions) /
                  result.seconds
            : 0.0;
        return result;
    }
};

/** Measured instructions per core: the option, else the profile's. */
std::uint64_t
measuredOf(const RunOptions &options, const wl::WorkloadProfile &profile)
{
    return options.measuredInstructions > 0 ? options.measuredInstructions
                                             : profile.instructions;
}

/** A fresh machine and workload set, already warmed up. */
Rig
buildRig(const sim::MachineConfig &config,
         const wl::WorkloadProfile &profile, const RunOptions &options)
{
    Rig rig;
    rig.budgetCycles = options.runBudgetCycles;
    rig.machine = std::make_unique<sim::Machine>(
        config, options.cores, options.seed, options.noc);
    rig.machine->setJitHintEnabled(options.jitHint);

    const wl::SpreadFactors spread{config.codeSpreadFactor,
                                   config.dataSpreadFactor};
    if (profile.managed) {
        rig.clr = wl::SynthWorkload::makeClr(
            profile, profile.seed ^ options.seed, spread);
    }
    for (unsigned c = 0; c < rig.machine->coreCount(); ++c) {
        rig.workloads.push_back(std::make_unique<wl::SynthWorkload>(
            profile, options.seed * 1000003ULL + c, rig.clr, spread));
    }
    // The discarded warm-up (§III-A); every caller measures after it.
    rig.advance(options.warmupInstructions, options.quantum);
    return rig;
}

/** Thrown when screenRunResult rejects a non-injected result. */
struct ScreenFailure : std::runtime_error
{
    explicit ScreenFailure(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/** Shared mutable state of one resilient sweep. */
struct SweepState
{
    unsigned attempts = 1;
    ResilienceOptions resilience;
    const FaultInjector *inject = nullptr; // null = no chaos
    /** Fail-fast: the lowest index that failed every attempt so far
     *  (SIZE_MAX = none). Only a run below it starts. */
    std::atomic<std::size_t> firstFailed{SIZE_MAX};
    std::mutex mu;
    std::vector<RunFailure> failures;
};

/**
 * The retry / backoff / quarantine state machine for one run.
 * `attempt` performs one attempt with the (possibly perturbed and
 * fault-annotated) options, throwing on any failure; on return the
 * attempt's result has already been stored at its slot.
 *
 * Everything recorded in SweepState::failures is a pure function of
 * (inputs, chaos plan) — no wall times, no worker ids — so ledgers
 * are byte-identical at any job count once sorted (fail-fast ones
 * once sweep() has made every run above the first failure a skip).
 */
template <typename AttemptFn>
void
attemptResiliently(std::size_t i, const std::string &name,
                   const RunOptions &base, SweepState &state,
                   RunLedgerEntry &entry, AttemptFn &&attempt)
{
    entry.benchmark = name;
    entry.index = i;
    const ResilienceOptions &res = state.resilience;

    // Fail-fast: a run above a permanent failure never starts; sweep()
    // turns it into a skip with the runs that finished before that
    // failure landed.
    if (i > state.firstFailed.load(std::memory_order_relaxed))
        return;

    const unsigned quarantine_at = res.quarantineAfter == 0
        ? 0
        : std::min(state.attempts, res.quarantineAfter);

    for (unsigned a = 1; a <= state.attempts; ++a) {
        entry.attempts = a;
        // A re-attempt runs at a perturbed seed, so a seed-dependent
        // failure is not replayed verbatim; attempt 1 keeps the seed.
        RunOptions opt = base;
        opt.seed = perturbedSeed(base.seed, name, a);
        const FaultDecision fault = state.inject
            ? state.inject->decide(name, a)
            : FaultDecision{};

        std::string kind = "error";
        try {
            attempt(opt, fault);
            entry.succeeded = true;
            entry.error.clear();
            return;
        } catch (const FaultInjectedError &ex) {
            kind = faultKindName(ex.kind());
            entry.error = ex.what();
        } catch (const RunBudgetExceeded &ex) {
            kind = fault.kind == FaultKind::Stall ? "stall"
                                                  : "budget";
            entry.error = ex.what();
        } catch (const ScreenFailure &ex) {
            kind = "screen";
            entry.error = ex.what();
        } catch (const std::exception &ex) {
            entry.error = ex.what();
        } catch (...) {
            entry.error = "unknown exception";
        }
        entry.succeeded = false;

        const bool quarantined = quarantine_at != 0 &&
                                 a >= quarantine_at;
        const bool retrying = !quarantined && a < state.attempts;

        RunFailure f;
        f.index = i;
        f.benchmark = name;
        f.attempt = a;
        f.kind = kind;
        f.error = entry.error;
        f.seed = opt.seed;
        if (retrying)
            f.backoffMicros =
                retryBackoffMicros(res.backoffBaseMicros, a + 1);
        {
            std::lock_guard<std::mutex> lock(state.mu);
            state.failures.push_back(f);
        }
        if (f.backoffMicros > 0)
            std::this_thread::sleep_for(
                std::chrono::microseconds(f.backoffMicros));
        if (quarantined) {
            entry.quarantined = true;
            break;
        }
    }

    if (!res.keepGoing) {
        std::size_t first = state.firstFailed.load(std::memory_order_relaxed);
        while (i < first && !state.firstFailed.compare_exchange_weak(
                                first, i, std::memory_order_relaxed)) {
        }
    }
}

/** Make `entry` a fail-fast skip, never attempted; returns the skip's
 *  failure record, at attempt 0 with the sweep's base seed. */
RunFailure
skipRun(RunLedgerEntry &entry, std::uint64_t seed)
{
    entry.attempts = 0;
    entry.succeeded = false;
    entry.skipped = true;
    entry.quarantined = false;
    entry.error = "skipped: fail-fast abort";
    RunFailure f;
    f.index = entry.index;
    f.benchmark = entry.benchmark;
    f.attempt = 0;
    f.kind = "skipped";
    f.error = entry.error;
    f.seed = seed;
    return f;
}

/** Sort and publish one sweep's failure ledger into stats. */
void
publishFailures(SweepState &state,
                const std::vector<RunLedgerEntry> &ledger,
                SuiteRunStats &s)
{
    std::sort(state.failures.begin(), state.failures.end(),
              [](const RunFailure &a, const RunFailure &b) {
                  return a.index != b.index ? a.index < b.index
                                            : a.attempt < b.attempt;
              });
    s.failures = std::move(state.failures);
    for (const auto &e : ledger)
        if (e.quarantined)
            s.quarantined.push_back(e.benchmark);
}

/** The measured window a sweep attempt is screened on. */
RunResult &
measuredResult(RunResult &r)
{
    return r;
}

RunResult &
measuredResult(CaptureResult &c)
{
    return c.result;
}

/**
 * The resilient sweep behind runAll and captureAll: the fault
 * injector, per-run retries through attemptResiliently, the executor
 * fan-out (on the calling thread alone at jobs 1), the fail-fast
 * skips and the run ledger. `attemptOnce(i, opt, fault)` performs one
 * attempt of profile i. Injected Throw and Stall faults are applied
 * before it, CorruptCounter and the result screen after it; `noun`
 * and `product` word the injected-fault messages ("the run would
 * hang", "before producing results"), which are part of the failure
 * ledger bytes.
 *
 * Results land at their input index, so ordering (and output bytes)
 * are independent of scheduling; see the header contract.
 */
template <typename Result, typename AttemptFn>
std::vector<Result>
sweep(const std::vector<wl::WorkloadProfile> &profiles,
      const RunOptions &options, const Parallelism &par,
      const std::string &machine, SuiteRunStats *stats,
      std::string_view noun, std::string_view product,
      AttemptFn &&attemptOnce)
{
    // Host wall time feeds only the run ledger (SuiteRunStats),
    // never simulated results.
    const std::size_t n = profiles.size();
    SweepState state;
    state.attempts = std::max(1u, par.maxAttempts);
    state.resilience = par.resilience;
    std::optional<FaultInjector> injector;
    if (par.resilience.chaos && par.resilience.chaos->enabled()) {
        injector.emplace(*par.resilience.chaos, machine);
        state.inject = &*injector;
    }

    std::vector<Result> out(n);
    std::vector<RunLedgerEntry> ledger(n);
    const auto run_one = [&](std::size_t i) {
        const double t0 = hostSeconds();
        RunLedgerEntry entry;
        attemptResiliently(
            i, profiles[i].name, options, state, entry,
            [&](RunOptions &opt, const FaultDecision &fault) {
                if (fault.kind == FaultKind::Throw)
                    throw FaultInjectedError(
                        FaultKind::Throw,
                        "injected fault: benchmark crashed before "
                        "producing " +
                            std::string(product));
                if (fault.kind == FaultKind::Stall) {
                    if (opt.runBudgetCycles == 0)
                        throw FaultInjectedError(
                            FaultKind::Stall,
                            "injected stall with no cycle budget: "
                            "the " +
                                std::string(noun) +
                                " would hang (set "
                                "RunOptions::runBudgetCycles / "
                                "--run-budget)");
                    // Inflate the run so the watchdog must trip;
                    // cost is bounded by the budget, not by this.
                    opt.measuredInstructions =
                        measuredOf(opt, profiles[i]) * 1024;
                }
                Result r = attemptOnce(i, opt, fault);
                RunResult &measured = measuredResult(r);
                if (fault.kind == FaultKind::CorruptCounter)
                    measured.metrics[fault.selector % kNumMetrics] =
                        fault.badValue;
                const std::string screen = screenRunResult(measured);
                if (!screen.empty()) {
                    if (fault.kind == FaultKind::CorruptCounter)
                        throw FaultInjectedError(
                            FaultKind::CorruptCounter,
                            "injected fault: " + screen);
                    throw ScreenFailure(screen);
                }
                out[i] = std::move(r);
            });
        entry.worker = Executor::workerId();
        entry.wallSeconds = hostSeconds() - t0;
        ledger[i] = std::move(entry);
    };

    const double sweep_start = hostSeconds();
    Executor executor(par.jobs);
    executor.forEach(n, run_one);

    // Fail-fast: every run above the lowest permanent failure is a
    // skip, also one that finished before that failure landed, so the
    // results and ledger are the serial sweep's at any job count.
    const std::size_t first =
        state.firstFailed.load(std::memory_order_relaxed);
    if (first < n) {
        std::erase_if(state.failures, [first](const RunFailure &f) {
            return f.index > first;
        });
        for (std::size_t i = first + 1; i < n; ++i) {
            out[i] = Result{};
            state.failures.push_back(skipRun(ledger[i], options.seed));
        }
    }

    if (stats) {
        SuiteRunStats s;
        s.jobs = n <= 1 ? 1 : executor.concurrency();
        s.wallSeconds = hostSeconds() - sweep_start;
        for (const auto &e : ledger)
            s.busySeconds += e.wallSeconds;
        s.steals = executor.stealCount();
        s.runs = std::move(ledger);
        publishFailures(state, s.runs, s);
        *stats = std::move(s);
    }
    return out;
}

} // namespace

RunResult
Characterizer::run(const wl::WorkloadProfile &raw_profile,
                   const RunOptions &options) const
{
    const auto profile = applyOverrides(raw_profile, options);
    Rig rig = buildRig(config_, profile, options);
    const Rig::Snapshot start = rig.snapshot();
    rig.advance(measuredOf(options, profile), options.quantum);
    return rig.resultSince(start, profile.cpuUtil);
}

std::vector<IntervalSample>
Characterizer::sampleCycles(const wl::WorkloadProfile &raw_profile,
                            const RunOptions &options,
                            double interval_cycles,
                            std::size_t samples) const
{
    const auto profile = applyOverrides(raw_profile, options);
    Rig rig = buildRig(config_, profile, options);
    // Advance in small instruction chunks until each cycle window
    // fills; granularity error is one chunk.
    const std::uint64_t chunk =
        std::max<std::uint64_t>(500, options.quantum / 16);
    std::vector<IntervalSample> out;
    out.reserve(samples);
    Rig::Snapshot prev = rig.snapshot();
    for (std::size_t i = 0; i < samples; ++i) {
        const double target = prev.counters.cycles + interval_cycles;
        while (rig.machine->totalCounters().cycles < target)
            rig.advance(chunk, chunk);
        const Rig::Snapshot now = rig.snapshot();
        out.push_back({now.counters.delta(prev.counters),
                       now.slots.delta(prev.slots),
                       now.events.delta(prev.events)});
        prev = now;
    }
    return out;
}

CaptureResult
Characterizer::capture(const wl::WorkloadProfile &raw_profile,
                       const RunOptions &options,
                       const TraceOptions &topts) const
{
    const auto profile = applyOverrides(raw_profile, options);
    Rig rig = buildRig(config_, profile, options);

    CaptureResult out;
    out.trace.benchmark = profile.name;
    out.trace.machine = config_.name;
    out.trace.ghz = config_.maxGhz;
    out.trace.seed = options.seed;
    // Instructions per core between counter records: the exact chunk
    // grid live cycle sampling advances on, which re-slice parity
    // relies on.
    const std::uint64_t chunk =
        std::max<std::uint64_t>(500, options.quantum / 16);
    out.trace.chunkInstructions = chunk;
    out.trace.events =
        trace::TraceBuffer<trace::TraceEvent>(topts.bufferEvents);
    out.trace.samples =
        trace::TraceBuffer<trace::CounterRecord>(topts.bufferSamples);

    // Attach after warmup: the trace covers the measured window only.
    trace::TraceRecorder recorder(&out.trace.events,
                                  rig.machine.get());
    if (rig.clr)
        rig.clr->trace().setRecorder(&recorder);
    rig.machine->attachTrace(&recorder, &out.trace.samples);

    const Rig::Snapshot start = rig.snapshot();
    // S0: the post-warmup baseline record every re-slice starts from.
    rig.machine->emitCounterSample();

    if (topts.measuredCycles > 0.0) {
        // Fixed-cycle span on the exact chunk grid live cycle
        // sampling advances on, so re-slices reproduce sampleCycles
        // boundaries bit-for-bit.
        const double target = start.counters.cycles + topts.measuredCycles;
        while (rig.machine->totalCounters().cycles < target) {
            rig.advance(chunk, chunk);
            rig.machine->emitCounterSample();
        }
    } else {
        const std::uint64_t measured = measuredOf(options, profile);
        std::uint64_t done = 0;
        while (done < measured) {
            const std::uint64_t step =
                std::min<std::uint64_t>(chunk, measured - done);
            rig.advance(step, step);
            done += step;
            rig.machine->emitCounterSample();
        }
    }

    if (rig.clr)
        rig.clr->trace().setRecorder(nullptr);
    rig.machine->attachTrace(nullptr, nullptr);

    out.result = rig.resultSince(start, profile.cpuUtil);
    return out;
}

std::vector<CaptureResult>
Characterizer::captureAll(
    const std::vector<wl::WorkloadProfile> &profiles,
    const RunOptions &options, const TraceOptions &topts,
    const Parallelism &par, SuiteRunStats *stats) const
{
    // Each capture owns a private rig and private rings, so traces
    // are independent of scheduling, like runAll() results.
    return sweep<CaptureResult>(
        profiles, options, par, config_.name, stats, "capture",
        "a trace",
        [&](std::size_t i, const RunOptions &opt,
            const FaultDecision &fault) {
            TraceOptions t = topts;
            if (fault.kind == FaultKind::TraceExhaust) {
                // Graceful degradation, not failure: the rings
                // shrink, the capture succeeds, drops recorded.
                t.bufferEvents = fault.traceCapacity;
                t.bufferSamples = fault.traceCapacity;
            }
            return capture(profiles[i], opt, t);
        });
}

double
SuiteRunStats::utilization() const
{
    const double capacity = static_cast<double>(jobs) * wallSeconds;
    return capacity > 0.0 ? busySeconds / capacity : 0.0;
}

unsigned
SuiteRunStats::retriedRuns() const
{
    unsigned n = 0;
    for (const auto &r : runs)
        n += r.attempts > 1 ? 1 : 0;
    return n;
}

unsigned
SuiteRunStats::failedRuns() const
{
    unsigned n = 0;
    for (const auto &r : runs)
        n += r.succeeded ? 0 : 1;
    return n;
}

unsigned
SuiteRunStats::skippedRuns() const
{
    unsigned n = 0;
    for (const auto &r : runs)
        n += r.skipped ? 1 : 0;
    return n;
}

std::string
screenRunResult(const RunResult &result)
{
    const auto &table = metricTable();
    for (std::size_t m = 0; m < kNumMetrics; ++m) {
        if (!std::isfinite(result.metrics[m])) {
            std::ostringstream os;
            os << "non-finite metric '" << table[m].name
               << "' = " << result.metrics[m];
            return os.str();
        }
    }
    if (!std::isfinite(result.counters.cycles))
        return "non-finite counter 'cycles'";
    if (!std::isfinite(result.seconds))
        return "non-finite run seconds";
    if (!std::isfinite(result.instructionsPerSecond))
        return "non-finite instructions/second";
    return {};
}

std::vector<RunResult>
Characterizer::runAll(const std::vector<wl::WorkloadProfile> &profiles,
                      const RunOptions &options, const Parallelism &par,
                      SuiteRunStats *stats) const
{
    return sweep<RunResult>(
        profiles, options, par, config_.name, stats, "run", "results",
        [&](std::size_t i, const RunOptions &opt, const FaultDecision &) {
            return run(profiles[i], opt);
        });
}

} // namespace netchar
