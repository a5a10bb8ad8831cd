/**
 * @file
 * §IV-A appendix: the metric-redundancy analysis that justifies PCA.
 * Computes the 24x24 Pearson correlation matrix of the Table I
 * metrics over the 44 .NET categories, lists the most correlated
 * metric pairs (the paper's examples: LLC behavior moves CPI and
 * L1/L2 performance; GC settings move LLC performance), and prints
 * the PCA eigen-spectrum — how many components it takes to cover a
 * given fraction of variance (prior work: ~4 metrics cover 90%).
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include "common.hh"
#include "core/report.hh"
#include "core/subset.hh"
#include "stats/summary.hh"
#include "workloads/dotnet.hh"

using namespace netchar;

NETCHAR_BENCH(metric_redundancy,
              "SIV-A appendix: metric correlation matrix and PCA "
              "eigen-spectrum over the .NET categories")
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profiles = wl::dotnetCategories();
    const auto results =
        bench::runSuite(ch, profiles, bench::standardOptions());

    std::vector<MetricVector> rows;
    for (const auto &r : results)
        rows.push_back(r.metrics);
    const auto data = toMatrix(rows);
    const auto corr = stats::correlationMatrix(data);

    // Most correlated metric pairs.
    struct Pair
    {
        std::size_t a, b;
        double r;
    };
    std::vector<Pair> pairs;
    for (std::size_t i = 0; i < kNumMetrics; ++i)
        for (std::size_t j = i + 1; j < kNumMetrics; ++j)
            pairs.push_back({i, j, corr(i, j)});
    std::sort(pairs.begin(), pairs.end(),
              [](const Pair &x, const Pair &y) {
                  return std::fabs(x.r) > std::fabs(y.r);
              });

    ctx.printf("Metric redundancy across the 44 .NET categories "
               "(§IV-A)\n\n");
    TextTable table({"Metric A", "Metric B", "Pearson r"});
    for (std::size_t k = 0; k < 12 && k < pairs.size(); ++k) {
        table.addRow({std::string(metricName(pairs[k].a)),
                      std::string(metricName(pairs[k].b)),
                      fmtFixed(pairs[k].r, 3)});
    }
    ctx.printf("%s\n", table.render().c_str());

    // Eigen-spectrum: cumulative variance by component count.
    stats::PcaOptions opts;
    opts.components = kNumMetrics;
    const auto pca = stats::runPca(data, opts);
    ctx.printf("Cumulative variance explained by the top "
               "components:\n");
    double cumulative = 0.0;
    int needed_for_90 = 0;
    for (std::size_t c = 0; c < 8; ++c) {
        cumulative += pca.explainedVariance[c];
        ctx.printf("  top %zu: %s\n", c + 1,
                   fmtPercent(cumulative).c_str());
        if (needed_for_90 == 0 && cumulative >= 0.90)
            needed_for_90 = static_cast<int>(c + 1);
    }
    if (needed_for_90 > 0)
        ctx.printf("Components needed for 90%% of variance: %d "
                   "(prior work the paper cites: ~4)\n",
                   needed_for_90);
    ctx.printf("The strongly correlated pairs above are exactly why "
               "the paper reduces the 24 metrics with PCA before "
               "clustering (§IV-A).\n");
    ctx.metric("components_for_90pct", "count",
               static_cast<double>(needed_for_90));
}
