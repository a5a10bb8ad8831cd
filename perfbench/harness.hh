/**
 * @file
 * Measurement core of the end-to-end benchmark: the clocks, the
 * host-speed reference, seeded input generation, percentiles with
 * their sample-support rule, the open-loop request generator,
 * in-memory spans with self-time attribution, and the result record
 * every workload returns.
 *
 * The benchmark keeps its own clock and generator instead of reusing
 * the program's, so a change under src/ can change what is measured
 * but never how it is measured or which inputs are fed.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

// ---------------------------------------------------------------
// Clock.
// ---------------------------------------------------------------

/** Monotonic host seconds (std::chrono::steady_clock). */
double steadySeconds();

/** Sleep the calling thread until steadySeconds() >= t. */
void sleepUntilSteady(double t);

/**
 * The clock a measurement reads. Tests substitute a fake whose time
 * advances only when the code under test says so.
 */
struct Clock
{
    std::function<double()> now = steadySeconds;
    std::function<void(double)> sleepUntil = sleepUntilSteady;
};

/** CPU seconds the calling thread has run (CLOCK_THREAD_CPUTIME_ID). */
double threadCpuSeconds();

// ---------------------------------------------------------------
// Host speed.
// ---------------------------------------------------------------

/**
 * A fixed reference computation, timed on the measuring thread
 * between a workload's operations so their CPU time can be rescaled
 * to the reference host's speed.
 *
 * CPU time leaves out the time other tenants hold the core, but not
 * how much slower code runs beside them. Over thirteen rounds of every
 * workload on the shared reference host, CPU per operation spread by
 * 0.29 to 0.72 (IQR/median) and drifted by up to a third, while its
 * ratio to this reference, timed on the same thread in the same run,
 * spread by 0.07 to 0.11 (BENCHMARK.md). Of nine candidate kernels,
 * three together tracked every workload best: an ordered-map build
 * over strings (allocation, pointer chasing, string compares), a sort
 * of random 64-bit keys (mispredicted branches over 1.6 MB) and
 * printing then parsing numbers as text. The reference is benchmark
 * code only, so no change to the program changes it.
 */
class HostSpeed
{
  public:
    /** CPU seconds one sample took on the reference host (median). */
    static constexpr double kReferenceSeconds = 0.046;
    /** addWork() runs the reference for this share of the work's CPU. */
    static constexpr double kShare = 0.2;

    /** @param cpuNow Clock the samples are timed with; tests inject
     *         one. */
    explicit HostSpeed(std::function<double()> cpuNow = threadCpuSeconds);

    /** Run and time the reference once. */
    void sample();

    /**
     * Count `cpuSeconds` more of the workload's CPU, then sample until
     * the reference has taken kShare of all counted so far. Called
     * after each operation, it spreads the samples over the run.
     */
    void addWork(double cpuSeconds);

    /**
     * Reference-host seconds per CPU second measured here:
     * kReferenceSeconds over the median sample (1 when none ran).
     */
    double scale() const;

    std::size_t samples() const { return seconds_.size(); }

  private:
    static constexpr std::size_t kSortKeys = 200000;

    /** The reference computation itself. */
    void runReference();

    std::function<double()> cpuNow_;
    /**
     * The sort's keys and the printed text, allocated once: freeing
     * blocks this large would move malloc's mmap threshold, and with
     * it how the program's own allocations land, by when samples ran.
     */
    std::vector<std::uint64_t> keys_;
    std::string text_;
    std::vector<double> seconds_;
    /** CPU seconds of the samples, and of the work, so far. */
    double total_ = 0.0, work_ = 0.0;
    /** Folds every kernel result, so none is optimized away. */
    std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------
// Seeded inputs.
// ---------------------------------------------------------------

/** splitmix64 stream: the only source of benchmark randomness. */
class SeededRng
{
  public:
    explicit SeededRng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();
    /** Uniform double in [0, 1). */
    double uniform();
    /** Uniform integer in [0, bound); 0 when bound == 0. */
    std::uint64_t below(std::uint64_t bound);
    /** Zipf(s = 1) rank in [0, n): rank 0 is the most popular. */
    std::size_t zipf(std::size_t n);

  private:
    std::uint64_t state_;
};

// ---------------------------------------------------------------
// Percentiles.
// ---------------------------------------------------------------

/** Samples that must lie beyond a reported percentile. */
inline constexpr std::size_t kMinSamplesBeyond = 10;

/**
 * Samples strictly beyond the `perMille`-th percentile of n samples
 * (floor of n * (1000 - perMille) / 1000; integer arithmetic so
 * p90 of 100 samples is exactly 10).
 */
std::size_t samplesBeyond(std::size_t n, unsigned perMille);

/** True when n samples leave kMinSamplesBeyond beyond the rank. */
bool supportsPercentile(std::size_t n, unsigned perMille);

/**
 * Linear-interpolation percentile of unsorted samples (rank =
 * q * (n - 1)). Throws std::invalid_argument when empty.
 */
double percentile(std::vector<double> samples, unsigned perMille);

double median(std::vector<double> samples);

// ---------------------------------------------------------------
// Open-loop driving.
// ---------------------------------------------------------------

/** One open-loop pass over one connection. */
struct OpenLoopResult
{
    /** Completion minus due time, seconds, per completed request. */
    std::vector<double> latency;
    /** Request index of each `latency` entry. */
    std::vector<std::size_t> completed;
    /** Send time minus due time, seconds: how late the generator
     *  itself ran. */
    std::vector<double> lag;
    /** Requests whose send or verify callback reported failure. */
    std::size_t failed = 0;
};

/**
 * Send requests due at `dueTimes` (ascending, clock seconds) through
 * a blocking `send(i)` callback. Each request waits for its due time,
 * never for an earlier one's reply beyond what the connection forces,
 * and its latency runs from the due time rather than the send time —
 * a responder that stalls on request i is charged on every request
 * due during the stall, not only on request i.
 *
 * `verify(i)` (optional) checks the reply after the clock is read, so
 * checking costs no latency; a request whose send or verify fails is
 * counted in `failed` and left out of `latency`.
 */
OpenLoopResult
runOpenLoop(const std::vector<double> &dueTimes,
            const std::function<bool(std::size_t)> &send,
            const Clock &clock,
            const std::function<bool(std::size_t)> &verify = nullptr);

// ---------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------

/** One timed interval at a layer boundary. */
struct Span
{
    /** Layer-qualified name, e.g. "sim.run". */
    std::string name;
    double start = 0.0;
    double end = 0.0;
    /** Index of the enclosing span in the same list; -1 = root. */
    int parent = -1;
    /** Operation the span belongs to (one request, run or lint). */
    std::uint64_t op = 0;
};

/**
 * Single-threaded span recorder: spans nest by a begin/end stack and
 * stay in memory. A traced task owns one Tracer; sweeps merge the
 * per-task lists afterwards with appendSpans().
 */
class Tracer
{
  public:
    explicit Tracer(Clock clock = {});

    /** Open a span under the innermost open one; returns its index. */
    int begin(std::string_view name, std::uint64_t op);
    /** Close span `id` (must be the innermost open span). */
    void end(int id);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock clock_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: begin on construction, end on destruction. A null
 *  tracer records nothing, so one code path serves both runs. */
class Scoped
{
  public:
    Scoped(Tracer *tracer, std::string_view name, std::uint64_t op);
    ~Scoped();
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    Tracer *tracer_;
    int id_ = -1;
};

/** Append `more` to `into`, rebasing parent indices. */
void appendSpans(std::vector<Span> &into, const std::vector<Span> &more);

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by the union of its children (children may
 * overlap each other and are clipped to the parent).
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Sum of self times per span name, in first-seen name order. */
std::vector<std::pair<std::string, double>>
selfTimeByName(const std::vector<Span> &spans);

/**
 * Share of root-span time no child span accounts for: the summed
 * self time of root spans over their summed duration.
 */
double unattributedFraction(const std::vector<Span> &spans);

/** Chrome trace-event JSON ("X" events, microseconds). */
std::string chromeTraceJson(const std::vector<Span> &spans);

// ---------------------------------------------------------------
// Results.
// ---------------------------------------------------------------

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** What one workload run reports. */
struct Outcome
{
    /** Every output check held (digest, replay and response bytes). */
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;
    /** Spans of the traced run, for --trace-out. */
    std::vector<Span> spans;

    void set(std::string_view name, std::string_view unit, double value);
    /** Record a failed check: one failed op and correct = false. */
    void fail(const std::string &why);
    void note(const std::string &line) { notes.push_back(line); }
};

/** The result line: {"correct","attempted","failed","metrics"}. */
std::string resultJson(const Outcome &outcome);

/** Peak resident set of this process, MB (getrusage). */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
