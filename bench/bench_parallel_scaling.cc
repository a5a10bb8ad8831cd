/**
 * @file
 * Scaling study of the parallel suite-execution engine: the dotnet
 * suite slice characterized by Characterizer::runAll at 1/2/4/8
 * jobs. Reports wall time, speedup over serial, engine utilization
 * and steal counts, and verifies the engine's core contract — the
 * exported CSV is byte-identical at every job count.
 *
 * Speedup is bounded by the machine actually running the bench: with
 * H hardware threads the ideal curve is min(jobs, H). The ≥3x-at-8
 * target therefore needs H >= 8; on smaller hosts the bench still
 * verifies determinism and prints the measured curve with the bound
 * noted. Honors NETCHAR_QUICK.
 */

#include <cstdio>
#include <thread>
#include <vector>

#include "common.hh"
#include "core/export.hh"
#include "core/report.hh"
#include "workloads/registry.hh"

using namespace netchar;

NETCHAR_BENCH(parallel_scaling,
              "Suite-executor scaling at 1/2/4/8 jobs with "
              "byte-identical-CSV determinism check")
{
    // The dotnet suite slice: every category, expanded once so the
    // run count (and per-run cost spread) resembles a real sweep.
    std::vector<wl::WorkloadProfile> profiles;
    for (const auto &p : wl::suiteProfiles(wl::Suite::DotNet)) {
        profiles.push_back(p);
        profiles.push_back(p.makeVariant(1));
    }
    RunOptions options = bench::standardOptions();
    options.warmupInstructions =
        bench::scaledInstructions(options.warmupInstructions);
    options.measuredInstructions = bench::scaledInstructions(400'000);

    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto names = bench::names(profiles);
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());

    std::string baselineCsv;
    double baselineWall = 0.0;
    TextTable table({"Jobs", "Wall s", "Speedup", "Ideal",
                     "Utilization", "Steals", "Identical"});
    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        Parallelism par;
        par.jobs = jobs;
        SuiteRunStats stats;
        const auto results =
            ch.runAll(profiles, options, par, &stats);
        const auto csv = metricsCsv(names, results);
        if (jobs == 1) {
            baselineCsv = csv;
            baselineWall = stats.wallSeconds;
        }
        const bool identical = csv == baselineCsv;
        const double speedup = stats.wallSeconds > 0.0
            ? baselineWall / stats.wallSeconds
            : 0.0;
        const double ideal = std::min(jobs, hw);
        table.addRow({std::to_string(jobs),
                      fmtFixed(stats.wallSeconds, 3),
                      fmtFixed(speedup, 2) + "x",
                      fmtFixed(ideal, 0) + "x",
                      fmtPercent(stats.utilization()),
                      std::to_string(stats.steals),
                      identical ? "yes" : "NO"});
        char metric_name[32];
        std::snprintf(metric_name, sizeof(metric_name),
                      "speedup_%uj", jobs);
        ctx.metric(metric_name, "x", speedup);
        if (jobs == 4)
            ctx.metric("utilization_4j", "frac",
                       stats.utilization());
        if (!identical) {
            ctx.fail("--jobs " + std::to_string(jobs) +
                     " output differs from --jobs 1");
            return;
        }
    }
    ctx.printf("%s", table.render().c_str());
    if (hw < 8)
        ctx.printf("note: host has %u hardware thread(s); the >=3x "
                   "@ 8 jobs target needs >= 8\n",
                   hw);
}
