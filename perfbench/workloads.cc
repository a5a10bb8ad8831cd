#include "workloads.hh"

#include <cstdio>

namespace perfbench
{

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> table = {
        {"subset-dotnet", runSubsetDotnet}, {"suite-spec", runSuiteSpec},
        {"serve-hit", runServeHit},         {"serve-mix", runServeMix},
        {"lint-cold", runLintCold},
    };
    return table;
}

const Workload *
findWorkload(std::string_view name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"op_cost_ms", "ms"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"bench.unattributed_frac", "frac"},
        {"bench.trace_overhead_frac", "frac"},
        {"bench.gen_lag_p99_us", "us"},
        {"bench.hit_samples", "count"},
        {"bench.miss_samples", "count"},
        {"workloads.synth_build_ms", "ms"},
        {"workloads.find_profile_us", "us"},
        {"runtime.clr_build_ms", "ms"},
        {"runtime.gc_triggered", "count"},
        {"runtime.jit_started", "count"},
        {"sim.machine_build_ms", "ms"},
        {"sim.run_s", "s"},
        {"sim.run_ns_per_inst", "ns"},
        {"sim.minstr_per_s", "Minstr/s"},
        {"sim.instructions", "count"},
        {"sim.kernel_instructions", "count"},
        {"sim.l1i_misses", "count"},
        {"sim.l1d_misses", "count"},
        {"sim.l2_misses", "count"},
        {"sim.llc_misses", "count"},
        {"sim.itlb_misses", "count"},
        {"sim.dtlb_misses", "count"},
        {"sim.page_faults", "count"},
        {"sim.dram_accesses", "count"},
        {"sim.prefetches_issued", "count"},
        {"sim.branch_misses", "count"},
        {"core.metrics_us", "us"},
        {"core.export_ms", "ms"},
        {"core.key_text_us", "us"},
        {"core.executor_utilization", "frac"},
        {"core.executor_steals", "count"},
        {"stats.subset_ms", "ms"},
        {"stats.hash_us", "us"},
        {"serve.parse_us", "us"},
        {"serve.lookup_us", "us"},
        {"serve.render_us", "us"},
        {"serve.ping_p50_us", "us"},
        {"serve.miss_compute_ms", "ms"},
        {"serve.miss_render_us", "us"},
        {"serve.insert_us", "us"},
        {"serve.journal_append_us", "us"},
        {"serve.hit_p50_us", "us"},
        {"serve.hit_p99_us", "us"},
        {"serve.hit_p999_us", "us"},
        {"serve.miss_p50_ms", "ms"},
        {"serve.miss_p95_ms", "ms"},
        {"serve.hit_over_1ms_frac", "frac"},
        {"serve.cache_hit_ratio", "frac"},
        {"serve.requests", "count"},
        {"serve.errors", "count"},
        {"serve.overloaded", "count"},
        {"serve.checkpoints", "count"},
        {"lint.discover_ms", "ms"},
        {"lint.read_ms", "ms"},
        {"lint.analyze_ms", "ms"},
        {"lint.assemble_ms", "ms"},
        {"lint.render_ms", "ms"},
        {"lint.files", "count"},
        {"lint.call_sites", "count"},
        {"lint.findings", "count"},
    };
    return defs;
}

namespace
{

struct Golden
{
    const char *workload;
    std::uint64_t seed;
    const char *digest;
};

/**
 * Output digests of full-size runs, recorded from the untraced
 * output: the sweep CSV (plus the subset representatives for
 * subset-dotnet) and the lint JSON report. The suite-spec digests
 * equal contentHashHex of `netchar suite spec --jobs 2 --seed N`'s
 * stdout. A deliberate change to those bytes re-records this table
 * in the same change.
 */
constexpr Golden kGolden[] = {
    {"subset-dotnet", 1, "396076c55f4f18229bf41e20365c20c4"},
    {"subset-dotnet", 2, "0645342ca16f70fcbfe179063667b201"},
    {"subset-dotnet", 3, "5c269d9fbfe7c112c98c7a96e9c5f55c"},
    {"suite-spec", 1, "0a8548a66fe81dc6b62ad86c1ba65553"},
    {"suite-spec", 2, "160d73f4acb6394a62cbfb6cec419574"},
    {"suite-spec", 3, "da4381b3b629adffc6863aba4178aa1c"},
    {"lint-cold", 1, "3cdf780bce94bd9532f390916675f8b3"},
    {"lint-cold", 2, "95392cfcf21815db30a17b441d067a76"},
    {"lint-cold", 3, "48e39bc4ebf32a6297ed3e721702a1d3"},
};

std::optional<std::string>
goldenDigest(std::string_view workload, std::uint64_t seed)
{
    for (const Golden &g : kGolden)
        if (g.workload == workload && g.seed == seed)
            return std::string(g.digest);
    return std::nullopt;
}

} // namespace

void
checkDigest(Outcome &out, std::string_view workload, const RunArgs &args,
            const std::string &digest)
{
    const auto expected =
        args.quick ? std::nullopt : goldenDigest(workload, args.seed);
    if (!expected) {
        out.note("output digest " + digest + " (seed " +
                 std::to_string(args.seed) + " unchecked: no record)");
        return;
    }
    if (*expected != digest) {
        out.fail("output digest " + digest + " != recorded " + *expected);
        return;
    }
    out.note("output digest " + digest + " matches the record");
}

double
medianOp(Outcome &out, const std::vector<double> &samples, const char *what)
{
    if (!supportsPercentile(samples.size(), 500)) {
        out.fail(std::string("the median ") + what + " needs " +
                 std::to_string(kMinSamplesBeyond) +
                 " samples beyond it; have " +
                 std::to_string(samples.size()));
        return 0.0;
    }
    // The tail goes to the notes only: on a shared host it moves by
    // more than any bound worth gating on.
    std::string tail = "no tail percentile has support";
    for (const unsigned perMille : {999u, 990u, 900u}) {
        if (supportsPercentile(samples.size(), perMille)) {
            char text[64];
            std::snprintf(text, sizeof(text), "p%g %.4f ms",
                          perMille / 10.0,
                          1e3 * percentile(samples, perMille));
            tail = text;
            break;
        }
    }
    const double p50 = median(samples);
    char line[200];
    std::snprintf(line, sizeof(line), "%s: %zu samples  p50 %.4f ms  %s",
                  what, samples.size(), 1e3 * p50, tail.c_str());
    out.note(line);
    return p50;
}

void
setCostMetrics(Outcome &out, double opCpuSeconds, const HostSpeed &opSpeed,
               const SetupCost &setup)
{
    const double setupCpu = median(setup.cpuSeconds);
    out.set("op_cost_ms", "ms", 1e3 * opCpuSeconds * opSpeed.scale());
    out.set("setup_s", "s", setupCpu * setup.speed.scale());
    char line[240];
    std::snprintf(line, sizeof(line),
                  "raw CPU: %.4f ms per op, host-speed scale %.4f from %zu "
                  "reference samples; %.4f s set-up (median of %zu), scale "
                  "%.4f from %zu",
                  1e3 * opCpuSeconds, opSpeed.scale(), opSpeed.samples(),
                  setupCpu, setup.cpuSeconds.size(), setup.speed.scale(),
                  setup.speed.samples());
    out.note(line);
}

} // namespace perfbench
