/**
 * @file
 * The benchmark's workloads and metric definitions. BENCHMARK.json at
 * the repo root names the same workloads and metrics; the quick check
 * (tests/quick_check.py) holds the two in step.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hh"

namespace perfbench
{

/** Command-line knobs of one run. */
struct RunArgs
{
    std::uint64_t seed = 1;
    /** Measurement window; a run measures at least this long. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics from span-instrumented replays. */
    bool trace = false;
    /** Smoke-test sizes (small instruction budgets and corpus). */
    bool quick = false;
};

/**
 * Operations a run completes at the least, so its median has
 * kMinSamplesBeyond samples beyond it.
 */
inline constexpr std::size_t kMinOps = 2 * kMinSamplesBeyond;

/** Set-ups per run; setup_s is their median. */
inline constexpr int kSetupRepeats = 3;

/** One workload; why each exists is recorded in BENCHMARK.json. */
struct Workload
{
    std::string name;
    Outcome (*run)(const RunArgs &);
};

const std::vector<Workload> &workloads();
const Workload *findWorkload(std::string_view name);

struct MetricDef
{
    std::string name;
    std::string unit;
};

/** Printed by every untraced run, in this order. */
const std::vector<MetricDef> &endToEndMetrics();
/** Printed by every traced run; 0 where a workload lacks the layer. */
const std::vector<MetricDef> &perLayerMetrics();

/**
 * Compare a full-size run's output digest (contentHashHex of the
 * workload's output bytes) with the one recorded for its seed: a
 * mismatch fails the run; a seed without a record, or a quick run, is
 * noted as unchecked.
 */
void checkDigest(Outcome &out, std::string_view workload,
                 const RunArgs &args, const std::string &digest);

/**
 * Median of per-operation samples (seconds). Fails the run when the
 * median lacks kMinSamplesBeyond samples beyond it; notes the count,
 * the median and the highest supported tail percentile under `what`.
 */
double medianOp(Outcome &out, const std::vector<double> &samples,
                const char *what);

/**
 * The CPU seconds of each set-up, with the host-speed reference
 * sampled between them. Set-up runs first, in a second or two, and the
 * host's speed then can differ from its average over the run, so
 * set-up is rescaled by its own samples.
 */
struct SetupCost
{
    std::vector<double> cpuSeconds;
    HostSpeed speed;

    void
    add(double cpu)
    {
        cpuSeconds.push_back(cpu);
        speed.addWork(cpu);
    }
};

/**
 * Fill op_cost_ms from `opCpuSeconds`, the CPU seconds one operation
 * takes, rescaled by `opSpeed`, and setup_s from the median set-up,
 * rescaled by its own samples; note the raw values and the scales.
 */
void setCostMetrics(Outcome &out, double opCpuSeconds,
                    const HostSpeed &opSpeed, const SetupCost &setup);

Outcome runSubsetDotnet(const RunArgs &args);
Outcome runSuiteSpec(const RunArgs &args);
Outcome runServeHit(const RunArgs &args);
Outcome runServeMix(const RunArgs &args);
Outcome runLintCold(const RunArgs &args);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
