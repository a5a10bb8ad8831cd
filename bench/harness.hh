/**
 * @file
 * Shared bench harness: every bench_X.cc under bench/ registers
 * itself here as a named benchmark that reports named metrics, and
 * all of them are compiled once, into the netchar_bench driver. The
 * harness owns quick/full mode, one run of each bench with one value
 * per metric, the table/CSV/JSON reporters, and the `--ci-check`
 * gates (PAR-01, OVH-01, ...). Each gated metric compares two timings
 * taken in the same process and is checked against an absolute
 * threshold, so no stored baseline is needed; repeated end-to-end
 * measurement and its regressions are perfbench's job.
 */

#ifndef NETCHAR_BENCH_HARNESS_HH
#define NETCHAR_BENCH_HARNESS_HH

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace netchar::bench
{

// ---------------------------------------------------------------
// Shared run-mode helpers (the one quick-mode policy). Host time
// comes from hostSeconds() (stats/hostclock.hh), as everywhere.
// ---------------------------------------------------------------

/**
 * True when NETCHAR_QUICK is set in the environment: benches shrink
 * their instruction budgets ~5x for smoke runs. This is the single
 * quick-mode read in the tree.
 */
bool quickMode();

/** Scale an instruction budget down in quick mode. */
std::uint64_t scaledInstructions(std::uint64_t full);

// ---------------------------------------------------------------
// Benchmark registration.
// ---------------------------------------------------------------

class Context;

using BenchFn = void (*)(Context &);

/** One registered benchmark. */
struct BenchDef
{
    std::string name;        ///< registry key, e.g. "fig03_kernel_frac"
    std::string description; ///< one line, shown by --list
    BenchFn fn = nullptr;
};

/**
 * Named-benchmark registry. Benches self-register into global() via
 * static Registration objects; tests build private registries. The
 * iteration order is always name-sorted, never registration order,
 * so reports are byte-stable however the linker arranges the
 * registration objects.
 */
class Registry
{
  public:
    /** The process-wide registry NETCHAR_BENCH registers into. */
    static Registry &global();

    /** Add a definition; throws std::logic_error on a duplicate name. */
    void add(BenchDef def);

    /** All definitions, sorted by name. */
    std::vector<const BenchDef *> sorted() const;

    /** Definition by exact name, or nullptr. */
    const BenchDef *find(std::string_view name) const;

  private:
    std::vector<BenchDef> defs_;
};

/** Static registrar: constructs into Registry::global(). */
struct Registration
{
    explicit Registration(BenchDef def);
};

// ---------------------------------------------------------------
// Per-run context handed to benchmark bodies.
// ---------------------------------------------------------------

/**
 * What a benchmark body talks to: named metrics (one value each),
 * the figure/table text stream (captured, and streamed to stdout
 * only with --echo, so figures don't interleave), and a failure
 * latch.
 */
class Context
{
  public:
    explicit Context(bool echoText);

    /**
     * Record the value of a named metric. Units are free-form but
     * documented per bench in docs/BENCHMARKS.md. A second record of
     * the same name fails the run and keeps the first value.
     */
    void metric(const std::string &name, const std::string &unit,
                double value);

    /** printf-style append to the figure/table text stream. */
    void printf(const char *fmt, ...)
        __attribute__((format(printf, 2, 3)));

    /** Append raw text to the figure/table text stream. */
    void print(const std::string &text);

    /** Latch the run as failed (invariant broke, budget exceeded). */
    void fail(const std::string &why);

    bool failed() const { return failed_; }
    const std::string &failure() const { return failure_; }

    /** One metric as recorded. */
    struct Sample
    {
        std::string name;
        std::string unit;
        double value = 0.0;
    };
    const std::vector<Sample> &samples() const { return samples_; }
    const std::string &text() const { return text_; }

  private:
    std::vector<Sample> samples_;
    std::string text_;
    std::string failure_;
    bool echo_ = false;
    bool failed_ = false;
};

/** Register a benchmark. */
#define NETCHAR_BENCH(ident, desc)                                   \
    static void netchar_bench_body_##ident(                          \
        ::netchar::bench::Context &);                                \
    static const ::netchar::bench::Registration                      \
        netchar_bench_reg_##ident{::netchar::bench::BenchDef{        \
            #ident, desc, &netchar_bench_body_##ident}};             \
    static void netchar_bench_body_##ident(                          \
        ::netchar::bench::Context &ctx)

// ---------------------------------------------------------------
// Results.
// ---------------------------------------------------------------

/** One benchmark's run. */
struct BenchResult
{
    std::string name;
    bool failed = false;
    std::string failure;
    std::vector<Context::Sample> metrics; ///< sorted by name

    const Context::Sample *find(std::string_view metric) const;
};

/** A full report: results plus the configuration that produced it. */
struct Report
{
    std::string mode;            ///< "quick" or "full"
    unsigned hardwareThreads = 0;
    std::vector<BenchResult> benches; ///< sorted by name

    const BenchResult *find(std::string_view bench) const;
};

// ---------------------------------------------------------------
// Run engine.
// ---------------------------------------------------------------

struct RunConfig
{
    /** Substrings; empty = run everything. A bench runs when its
     *  name contains any of the filters. */
    std::vector<std::string> filters;
    bool echoText = true;    ///< stream figure text to stdout live
    bool progress = true;    ///< per-bench progress lines on stderr
    /** Injectable clock for deterministic tests; null = hostSeconds. */
    double (*clock)() = nullptr;
};

/** Run one definition once, adding the wall_s metric. */
BenchResult runBench(const BenchDef &def, const RunConfig &config);

/** Run every matching definition; result is name-sorted. */
Report runAll(const Registry &registry, const RunConfig &config);

// ---------------------------------------------------------------
// Reporters. All three are pure functions of the Report, so bytes
// are identical for identical results regardless of registration
// order or host.
// ---------------------------------------------------------------

std::string reportTable(const Report &report);
std::string reportCsv(const Report &report);
std::string reportJson(const Report &report);

// ---------------------------------------------------------------
// Perf gates.
// ---------------------------------------------------------------

enum class GateKind
{
    MinAbsolute, ///< current >= threshold
    MaxAbsolute, ///< current <= threshold
};

/** One named CI gate over a (bench, metric) pair's value. */
struct Gate
{
    std::string id;     ///< e.g. "SIM-01"
    std::string bench;  ///< registry name
    std::string metric; ///< metric name inside the bench
    GateKind kind = GateKind::MinAbsolute;
    double threshold = 0.0;
    /** Gate is skipped (reported, not failed) on hosts with fewer
     *  hardware threads: PAR-01 needs real cores to say anything. */
    unsigned minHardwareThreads = 0;
    std::string rationale; ///< one line for --list-gates and docs
};

/** The committed gate set CI enforces (docs/BENCHMARKS.md table). */
const std::vector<Gate> &ciGates();

enum class Verdict
{
    Pass,
    Regress,       ///< threshold violated
    MissingMetric, ///< gate metric absent from the results
    Skipped,       ///< host precondition not met
};

std::string_view verdictName(Verdict v);

struct GateOutcome
{
    Gate gate;
    Verdict verdict = Verdict::Pass;
    double current = 0.0; ///< measured value (0 if missing)
    std::string note;
};

struct GateReport
{
    std::vector<GateOutcome> outcomes;
    bool pass = true; ///< no Regress/MissingMetric outcome
};

/** Evaluate gates over `current`. */
GateReport checkGates(const Report &current,
                      const std::vector<Gate> &gates,
                      unsigned hardwareThreads);

/** Render the per-gate pass/fail table (markdown-compatible pipes
 *  so CI can drop it into a job summary). */
std::string gateTable(const GateReport &report);

/**
 * Overwrite every gated metric of `report` with a value that
 * violates its gate (half the threshold of an at-least gate, double
 * that of an at-most gate) — the --self-test-regress perturbation
 * used to prove the gates actually trip.
 */
void injectRegression(Report &report, const std::vector<Gate> &gates);

// ---------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------

/**
 * main() of the combined netchar_bench driver. Exit 0 on success,
 * 1 on bench failure or gate regression, 2 on usage/IO/parse error.
 */
int driverMain(int argc, char **argv);

} // namespace netchar::bench

#endif // NETCHAR_BENCH_HARNESS_HH
