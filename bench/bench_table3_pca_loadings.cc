/**
 * @file
 * Table III reproduction: characterize the 44 .NET categories on the
 * Intel Core i9-9980XE model over all 24 Table I metrics, run PCA,
 * and print the top-3 loading factors of the first four principal
 * components together with each component's explained variance.
 *
 * Paper reference values: PRCO variances 0.306 / 0.229 / 0.148 /
 * 0.107 (cumulative 0.79); PRCO1 dominated by L2/I-TLB/D-TLB MPKIs,
 * PRCO2 by D-TLB-store MPKI + memory bandwidths, PRCO3/PRCO4 by
 * instruction-mix and runtime-event metrics.
 */

#include "common.hh"
#include "core/report.hh"
#include "core/subset.hh"
#include "workloads/dotnet.hh"

using namespace netchar;

NETCHAR_BENCH(table3_pca_loadings,
              "Table III: PCA loading factors and explained "
              "variance over the 44 .NET categories")
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profiles = wl::dotnetCategories();
    const auto results =
        bench::runSuite(ch, profiles, bench::standardOptions());

    std::vector<MetricVector> rows;
    rows.reserve(results.size());
    for (const auto &r : results)
        rows.push_back(r.metrics);

    stats::PcaOptions opts;
    opts.components = 4;
    const auto pca = stats::runPca(toMatrix(rows), opts);

    ctx.printf("Table III: loading factors of the top 3 metrics on "
               "the four principal components\n");
    ctx.printf("(.NET suite, 44 categories, 24 standardized Table I "
               "metrics)\n\n");

    TextTable table({"PRCO", "Variance", "Metric #1", "Load",
                     "Metric #2", "Load", "Metric #3", "Load"});
    for (std::size_t comp = 0; comp < 4; ++comp) {
        const auto top = stats::topLoadings(pca, comp, 3);
        std::vector<std::string> row;
        row.push_back("PRCO" + std::to_string(comp + 1));
        row.push_back(fmtFixed(pca.explainedVariance[comp], 3));
        for (std::size_t k = 0; k < 3; ++k) {
            row.push_back(std::string(metricName(top[k])));
            row.push_back(fmtFixed(pca.loadings(comp, top[k]), 3));
        }
        table.addRow(std::move(row));
    }
    ctx.printf("%s\n", table.render().c_str());

    ctx.printf("Cumulative variance of top 4 PRCOs: %s "
               "(paper: 0.79)\n",
               fmtFixed(pca.cumulativeExplained(), 3).c_str());
    ctx.printf("Paper variances per PRCO: 0.306 / 0.229 / 0.148 / "
               "0.107\n");
    ctx.metric("prco1_variance", "frac", pca.explainedVariance[0]);
    ctx.metric("cumulative_variance_top4", "frac",
               pca.cumulativeExplained());
}
