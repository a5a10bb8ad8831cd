/**
 * @file
 * Figure 6 reproduction: memory-behavior PRCO comparison between the
 * full ASP.NET suite (53 benchmarks) and SPEC CPU17, over metrics
 * 8-14 (cache and TLB MPKIs).
 *
 * Paper reference: distinct regions per suite; SPEC stddev is 1.27x
 * that of ASP.NET for memory metrics. PRCO1 is dominated by LLC and
 * D-TLB misses, PRCO2 by I-cache and I-TLB misses.
 */

#include "common.hh"
#include "core/report.hh"
#include "core/subset.hh"
#include "stats/summary.hh"
#include "workloads/registry.hh"

using namespace netchar;

namespace
{

double
suiteStddev(const stats::Matrix &scores, std::size_t begin,
            std::size_t end)
{
    std::vector<double> values;
    for (std::size_t r = begin; r < end; ++r)
        for (std::size_t c = 0; c < scores.cols(); ++c)
            values.push_back(scores(r, c));
    return netchar::stats::stddev(values);
}

} // namespace

NETCHAR_BENCH(fig06_mem_pca,
              "Figure 6: memory-metric PCA scatter, ASP.NET vs "
              "SPEC CPU17 diversity")
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto aspnet = wl::suiteProfiles(wl::Suite::AspNet);
    const auto spec = wl::suiteProfiles(wl::Suite::SpecCpu17);

    auto profiles = aspnet;
    profiles.insert(profiles.end(), spec.begin(), spec.end());
    const auto results =
        bench::runSuite(ch, profiles, bench::standardOptions());

    std::vector<MetricVector> rows;
    for (const auto &r : results)
        rows.push_back(r.metrics);
    const auto mem = toMatrix(rows, memoryMetricIds());

    stats::PcaOptions opts;
    opts.components = 2;
    const auto pca = stats::runPca(mem, opts);

    ctx.printf("Figure 6: comparison between ASP.NET and SPEC CPU17 "
               "(memory metrics 8-14)\n\n");
    TextTable table({"Benchmark", "Suite", "PRCO1", "PRCO2"});
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        table.addRow({profiles[i].name,
                      wl::suiteName(profiles[i].suite),
                      fmtFixed(pca.scores(i, 0), 3),
                      fmtFixed(pca.scores(i, 1), 3)});
    }
    ctx.printf("%s\n", table.render().c_str());

    ctx.printf("Top PRCO1 loadings:");
    for (std::size_t idx : stats::topLoadings(pca, 0, 3))
        ctx.printf(" %s (%.2f)",
                   std::string(metricName(memoryMetricIds()[idx]))
                       .c_str(),
                   pca.loadings(0, idx));
    ctx.printf("\nTop PRCO2 loadings:");
    for (std::size_t idx : stats::topLoadings(pca, 1, 3))
        ctx.printf(" %s (%.2f)",
                   std::string(metricName(memoryMetricIds()[idx]))
                       .c_str(),
                   pca.loadings(1, idx));
    ctx.printf("\n\n");

    const double sd_asp = suiteStddev(pca.scores, 0, aspnet.size());
    const double sd_spec =
        suiteStddev(pca.scores, aspnet.size(), profiles.size());
    ctx.printf("Memory-behavior stddev: SPEC %.3f vs ASP.NET %.3f "
               "-> ratio %.2fx (paper: 1.27x)\n",
               sd_spec, sd_asp, sd_spec / sd_asp);
    ctx.metric("stddev_ratio_spec_vs_aspnet", "x",
               sd_spec / sd_asp);
}
