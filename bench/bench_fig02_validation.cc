/**
 * @file
 * Figure 2 reproduction: validation of the .NET representative
 * subsets via SPECspeed-style composite scores.
 *
 * score(benchmark) = time on the baseline Xeon E5-2620 v4
 *                  / time on the Core i9-9980XE.
 *
 * Subset A  = 8 of 44 categories (the clustering pick).
 * Subset A(o) = optimum choose-1-per-cluster subset.
 * Subset B  = 64 of the 2,906 individual microbenchmarks.
 *
 * Paper accuracies: A = 98.7%, B = 96.3%, A(o) = 99.9%.
 */

#include "common.hh"
#include "core/report.hh"
#include "core/subset.hh"
#include "workloads/dotnet.hh"

using namespace netchar;

namespace
{

/** Seconds per benchmark, in run order. */
std::vector<double>
secondsOf(const std::vector<RunResult> &runs)
{
    std::vector<double> seconds;
    seconds.reserve(runs.size());
    for (const auto &r : runs)
        seconds.push_back(r.seconds);
    return seconds;
}

/** Metric rows, in run order. */
std::vector<MetricVector>
rowsOf(const std::vector<RunResult> &runs)
{
    std::vector<MetricVector> rows;
    rows.reserve(runs.size());
    for (const auto &r : runs)
        rows.push_back(r.metrics);
    return rows;
}

} // namespace

NETCHAR_BENCH(fig02_validation,
              "Figure 2: SPECspeed-style validation accuracy of "
              "subsets A, A(o) and B")
{
    Characterizer baseline(sim::MachineConfig::intelXeonE52620V4());
    Characterizer machine_a(sim::MachineConfig::intelCoreI99980Xe());

    // ---- Category level (Subset A, A(o)) ----
    const auto categories = wl::dotnetCategories();
    const auto opts = bench::standardOptions();
    const auto a_runs = bench::runSuite(machine_a, categories, opts);
    const auto scores = benchmarkScores(
        secondsOf(bench::runSuite(baseline, categories, opts)),
        secondsOf(a_runs));
    const double full = compositeScore(scores);

    SubsetOptions sopts;
    sopts.subsetSize = 8;
    const auto subset = buildSubset(rowsOf(a_runs), sopts);
    const double subset_a =
        compositeScore(scores, subset.representatives);
    const auto optimum = optimumSubset(scores, subset.clusters);

    // ---- Individual-microbenchmark level (Subset B) ----
    const std::uint64_t micro_inst =
        bench::scaledInstructions(60'000);
    auto micros = wl::dotnetMicrobenchmarks(micro_inst);
    // The options fix the measured length, so runSuite's scaling of
    // each profile's own length does not apply.
    RunOptions micro_opts;
    micro_opts.warmupInstructions =
        bench::scaledInstructions(40'000);
    micro_opts.measuredInstructions = micro_inst;
    const auto micro_a_runs =
        bench::runSuite(machine_a, micros, micro_opts);
    const auto micro_scores = benchmarkScores(
        secondsOf(bench::runSuite(baseline, micros, micro_opts)),
        secondsOf(micro_a_runs));
    const double micro_full = compositeScore(micro_scores);

    SubsetOptions bopts;
    bopts.subsetSize = 64;
    const auto subset_b_result =
        buildSubset(rowsOf(micro_a_runs), bopts);
    const double subset_b = compositeScore(
        micro_scores, subset_b_result.representatives);

    // ---- Report ----
    ctx.printf("Figure 2: validation of .NET representative "
               "subsets\n");
    ctx.printf("(score = Xeon E5-2620v4 time / i9-9980XE time; "
               "composite = geomean)\n\n");
    TextTable table({"Set", "Composite score", "Accuracy",
                     "Paper accuracy"});
    table.addRow({"Full suite (44 categories)", fmtFixed(full, 4),
                  "100.0%", "100%"});
    table.addRow({"Subset A (8 categories)", fmtFixed(subset_a, 4),
                  fmtFixed(subsetAccuracyPct(full, subset_a), 1) + "%",
                  "98.7%"});
    table.addRow(
        {"Subset A(o) (optimum)",
         fmtFixed(compositeScore(scores, optimum.subset), 4),
         fmtFixed(optimum.accuracyPct, 1) + "%", "99.9%"});
    table.addRow({"Full corpus (2906 micros)",
                  fmtFixed(micro_full, 4), "100.0%", "100%"});
    table.addRow({"Subset B (64 micros)", fmtFixed(subset_b, 4),
                  fmtFixed(subsetAccuracyPct(micro_full, subset_b),
                           1) +
                      "%",
                  "96.3%"});
    ctx.printf("%s\n", table.render().c_str());
    ctx.printf("Optimum search examined %llu combinations.\n",
               static_cast<unsigned long long>(
                   optimum.combinationsTried));
    ctx.metric("accuracy_a_pct", "%",
               subsetAccuracyPct(full, subset_a));
    ctx.metric("accuracy_ao_pct", "%", optimum.accuracyPct);
    ctx.metric("accuracy_b_pct", "%",
               subsetAccuracyPct(micro_full, subset_b));
}
