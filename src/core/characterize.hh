/**
 * @file
 * Characterizer: the measurement harness. Runs a workload profile on
 * a simulated machine following the paper's methodology (§III): warm
 * up (the discarded first run), then measure a steady-state window,
 * collecting perf counters, Top-Down slots and runtime events.
 */

#ifndef NETCHAR_CORE_CHARACTERIZE_HH
#define NETCHAR_CORE_CHARACTERIZE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/faults.hh"
#include "core/metrics.hh"
#include "runtime/events.hh"
#include "runtime/gc.hh"
#include "sim/config.hh"
#include "sim/counters.hh"
#include "sim/noc.hh"
#include "trace/sample.hh"
#include "trace/trace.hh"
#include "workloads/profile.hh"

namespace netchar
{

/** Knobs for one characterization run. */
struct RunOptions
{
    /** Warmup instructions per core (discarded, §III-A). */
    std::uint64_t warmupInstructions = 600'000;
    /** Measured instructions per core (0 = profile default). */
    std::uint64_t measuredInstructions = 0;
    /** Cores the workload runs on (ASP.NET scaling sweeps). */
    unsigned cores = 1;
    /** Run seed (vary for repetitions). */
    std::uint64_t seed = 1;
    /** Enable the JIT ISA-hint ablation (§VII-A1 proposal). */
    bool jitHint = false;
    /** NoC contention knobs (ablation switch inside). */
    sim::NocParams noc{};
    /** Override the profile's GC mode (Fig 14 sweeps). */
    std::optional<rt::GcMode> gcMode;
    /** Override the profile's GC assist mode (hardware-GC ablation). */
    std::optional<rt::GcAssist> gcAssist;
    /** Override the profile's max heap bytes (Fig 14 sweeps). */
    std::optional<std::uint64_t> maxHeapBytes;
    /** Scale the profile's allocation rate (GC-pressure studies). */
    double allocScale = 1.0;
    /** Round-robin quantum for multi-core interleaving. */
    std::uint64_t quantum = 20'000;
    /**
     * Per-run cycle-budget watchdog: a run that burns more simulated
     * cycles than this throws RunBudgetExceeded — the deterministic
     * analogue of a wall-clock timeout (same budget trips on the same
     * cycle on every host). 0 = disabled.
     */
    std::uint64_t runBudgetCycles = 0;
};

/** Everything measured in one steady-state window. */
struct RunResult
{
    /** Aggregate counters over all cores, measured window only. */
    sim::PerfCounters counters;
    /** Aggregate Top-Down slots, measured window only. */
    sim::SlotAccount slots;
    /** Runtime events (zeros for native workloads). */
    rt::RuntimeEventCounts events;
    /** Table I metric vector. */
    MetricVector metrics;
    /** Wall-clock seconds of the measured window. */
    double seconds = 0.0;
    /** Benchmark throughput proxy: instructions per second. */
    double instructionsPerSecond = 0.0;
};

/** Knobs for one trace capture (see Characterizer::capture). */
struct TraceOptions
{
    /** Event ring capacity (drop-oldest beyond this). */
    std::size_t bufferEvents = 65'536;
    /** Counter-record ring capacity. */
    std::size_t bufferSamples = 65'536;
    /**
     * When > 0, measure until this many aggregate cycles elapsed
     * instead of a fixed instruction count — the trace analogue of
     * sampleCycles' fixed-cycle windows.
     */
    double measuredCycles = 0.0;
};

/** A captured trace plus the run's aggregate measurement. */
struct CaptureResult
{
    trace::Trace trace;
    RunResult result;
};

/** Failure-handling policy for suite sweeps (runAll/captureAll). */
struct ResilienceOptions
{
    /**
     * Keep sweeping after a run exhausts its attempts (default):
     * survivors are returned and failures land in the ledger. False
     * = fail-fast: every run after the first permanent failure in
     * input order is recorded as skipped, with a default result, at
     * any Parallelism::jobs.
     */
    bool keepGoing = true;
    /**
     * Quarantine a run after this many consecutive failed attempts:
     * remaining retries are forfeited and the benchmark name lands in
     * SuiteRunStats::quarantined (feed it back as a skip list). 0 =
     * never quarantine; effective threshold is min(maxAttempts, this).
     */
    unsigned quarantineAfter = 0;
    /**
     * Exponential retry backoff base, microseconds of host sleep:
     * before attempt k the runner sleeps retryBackoffMicros(base, k).
     * 0 = no backoff. (Host-time only; never affects results or the
     * deterministic ledger beyond the recorded plan value.)
     */
    std::uint64_t backoffBaseMicros = 0;
    /** Fault-injection plan (chaos mode); nullptr = no injection. */
    const FaultPlan *chaos = nullptr;
};

/** Longest retry backoff, microseconds (100 ms). */
inline constexpr std::uint64_t kMaxBackoffMicros = 100'000;

/**
 * The one retry backoff schedule, shared by sweeps
 * (ResilienceOptions::backoffBaseMicros) and serve::Client: the
 * sleep before attempt `attempt` (1-based) is base * 2^(attempt-2),
 * saturating at kMaxBackoffMicros however large `base` or `attempt`
 * is. 0 before the first attempt and for a zero base.
 */
std::uint64_t retryBackoffMicros(std::uint64_t base, unsigned attempt);

/** Fan-out policy for suite-scale sweeps (runAll/captureAll). */
struct Parallelism
{
    /** Concurrent runs; 1 = serial on the calling thread, 0 = one
     *  per hardware thread. */
    unsigned jobs = 1;
    /** Total attempts per run: a run whose workload throws is
     *  retried until it succeeds or attempts are exhausted (the
     *  default retries once). Minimum 1. */
    unsigned maxAttempts = 2;
    /** Failure handling: retries, backoff, quarantine, chaos. */
    ResilienceOptions resilience;
};

/** Run-ledger entry: what happened to one (profile, seed) run. */
struct RunLedgerEntry
{
    std::string benchmark;
    /** Position in the input profile list (== result index). */
    std::size_t index = 0;
    /** Attempts consumed (1 = clean first run). */
    unsigned attempts = 1;
    bool succeeded = true;
    /** what() of the last failed attempt; empty when clean. */
    std::string error;
    /** Host wall seconds spent on this run, all attempts. */
    double wallSeconds = 0.0;
    /** Executor id of the thread that ran it (Executor::workerId;
     *  0 at jobs 1, the calling thread). */
    int worker = -1;
    /** Fail-fast skip: a run above the first permanent failure. */
    bool skipped = false;
    /** Hit the consecutive-failure quarantine threshold. */
    bool quarantined = false;
};

/**
 * One failed run attempt, as recorded in the deterministic failure
 * ledger. Deliberately excludes wall times and worker ids: for a
 * fixed (profiles, options, chaos spec) the ledger of a keep-going
 * sweep is byte-identical at any Parallelism::jobs.
 */
struct RunFailure
{
    /** Position in the input profile list. */
    std::size_t index = 0;
    std::string benchmark;
    /** 1-based attempt number that failed. */
    unsigned attempt = 1;
    /** Failure class: an injected FaultKind name ("throw",
     *  "corrupt", "stall", "trace"), "budget" for a watchdog kill,
     *  "screen" for a non-finite result, "skipped" for a fail-fast
     *  skip, or "error" for an ordinary workload exception. */
    std::string kind;
    /** what() of the failure. */
    std::string error;
    /** Seed this attempt actually ran with. */
    std::uint64_t seed = 0;
    /** Backoff slept before the next attempt (plan value, us). */
    std::uint64_t backoffMicros = 0;
};

/** Observability surface of one runAll/captureAll sweep. */
struct SuiteRunStats
{
    /** Jobs actually used (after resolving jobs == 0). */
    unsigned jobs = 1;
    /** Host wall seconds for the whole sweep. */
    double wallSeconds = 0.0;
    /** Sum of per-run wall seconds (work actually done). */
    double busySeconds = 0.0;
    /** Executor steal count (always 0 at jobs 1). */
    std::uint64_t steals = 0;
    /** One entry per input profile, in input order. */
    std::vector<RunLedgerEntry> runs;
    /** Every failed attempt, sorted by (index, attempt) — the
     *  deterministic ledger (see RunFailure). */
    std::vector<RunFailure> failures;
    /** Benchmarks quarantined this sweep, in input order. */
    std::vector<std::string> quarantined;

    /** busy / (jobs x wall): 1.0 = every job busy the whole sweep. */
    double utilization() const;
    /** Runs that needed more than one attempt. */
    unsigned retriedRuns() const;
    /** Runs that failed every attempt (their RunResult is
     *  default-constructed). */
    unsigned failedRuns() const;
    /** Runs never attempted (fail-fast abort). */
    unsigned skippedRuns() const;
};

/**
 * Screen a run result for corrupted measurements: every counter-
 * derived metric and the timing fields must be finite. Returns an
 * empty string when clean, else a message naming the first offending
 * field (e.g. "non-finite metric 'cpi' = nan"). runAll and
 * captureAll apply this to every attempt, so a wedged counter read
 * is a retryable failure, never a silent row of NaNs.
 */
std::string screenRunResult(const RunResult &result);

/**
 * Measurement harness bound to one machine configuration. Stateless
 * across run() calls: every run builds a fresh machine.
 */
class Characterizer
{
  public:
    explicit Characterizer(sim::MachineConfig config);

    /** Machine configuration in use. */
    const sim::MachineConfig &config() const { return config_; }

    /**
     * Run one benchmark: warmup, then measure. Multi-core runs share
     * one CLR (one server process) and interleave cores round-robin.
     */
    RunResult run(const wl::WorkloadProfile &profile,
                  const RunOptions &options = {}) const;

    /**
     * Run one benchmark and capture per-interval deltas after warmup
     * over fixed *cycle* windows — the analogue of the paper's
     * LTTng-style 1 ms wall-clock sampling (§VII-A). Instruction
     * counts then vary per interval with IPC, which the §VII
     * correlation studies rely on. capture() + TraceAnalyzer::reslice
     * is the production path; this live loop is its reference.
     */
    std::vector<IntervalSample>
    sampleCycles(const wl::WorkloadProfile &profile,
                 const RunOptions &options,
                 double interval_cycles, std::size_t samples) const;

    /**
     * Run one benchmark with timeline tracing: after warmup, every
     * CLR event lands timestamped in a bounded ring and a cumulative
     * counter record is emitted at each advance chunk. The returned
     * RunResult is derived from the same snapshots run() takes, and
     * the trace re-slices (trace::TraceAnalyzer) into IntervalSample
     * series at any interval — at the legacy interval, bit-identical
     * to sampleCycles() when topts.measuredCycles spans it.
     *
     * Deterministic: the trace is byte-identical for a given
     * (profile, machine config, options) regardless of host load or
     * how many captures run concurrently (each rig's buffers are
     * private and timestamps come from simulated time).
     */
    CaptureResult capture(const wl::WorkloadProfile &profile,
                          const RunOptions &options = {},
                          const TraceOptions &topts = {}) const;

    /**
     * Capture a whole list of profiles, fanned out like runAll():
     * results are in input order and independent of par.jobs, with
     * the same retry / quarantine / keep-going machinery (a failed
     * capture leaves a default CaptureResult at its slot). An
     * injected TraceExhaust fault clamps the rings instead of
     * failing the capture — drops are graceful degradation, not an
     * error.
     *
     * @param stats Optional run ledger, overwritten on return.
     */
    std::vector<CaptureResult>
    captureAll(const std::vector<wl::WorkloadProfile> &profiles,
               const RunOptions &options, const TraceOptions &topts,
               const Parallelism &par = {},
               SuiteRunStats *stats = nullptr) const;

    /**
     * Characterize a whole list of profiles (one row per benchmark),
     * fanned out over a fork-join Executor; run() on each profile in
     * turn is the serial reference.
     *
     * Every run builds a fresh sim::Machine, workload set and CLR and
     * draws from its own seeded RNG streams; runs share no mutable
     * state (asserted by tests/core/executor_test.cc, documented in
     * docs/ARCHITECTURE.md). Results are therefore independent of
     * `par.jobs` and returned in input order — `jobs = N` output is
     * byte-identical to `jobs = 1`.
     *
     * A run whose workload throws is caught, recorded in the ledger
     * and retried (par.maxAttempts total attempts) instead of
     * aborting the sweep; a run that fails every attempt leaves a
     * default-constructed RunResult at its slot and is flagged in
     * `stats` (always check failedRuns() when passing stats).
     *
     * @param par Fan-out policy (jobs, retry budget).
     * @param stats Optional run ledger, overwritten on return.
     */
    std::vector<RunResult>
    runAll(const std::vector<wl::WorkloadProfile> &profiles,
           const RunOptions &options, const Parallelism &par,
           SuiteRunStats *stats = nullptr) const;

  private:
    wl::WorkloadProfile applyOverrides(const wl::WorkloadProfile &p,
                                       const RunOptions &o) const;

    sim::MachineConfig config_;
};

} // namespace netchar

#endif // NETCHAR_CORE_CHARACTERIZE_HH
