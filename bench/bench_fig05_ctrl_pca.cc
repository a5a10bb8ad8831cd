/**
 * @file
 * Figure 5 reproduction: control-flow PRCO comparison between the
 * full .NET suite (44 categories) and SPEC CPU17, using metrics 2
 * (branch instruction %) and 7 (branch MPKI).
 *
 * Paper reference: the two suites occupy distinct regions; the
 * standard deviation of SPEC CPU17 is 5.73x that of .NET (SPEC is
 * far more diverse in control-flow behavior).
 */

#include "common.hh"
#include "core/report.hh"
#include "core/subset.hh"
#include "stats/summary.hh"
#include "workloads/registry.hh"

using namespace netchar;

namespace
{

/** Pooled per-suite standard deviation over all PRCO coordinates. */
double
suiteStddev(const stats::Matrix &scores, std::size_t begin,
            std::size_t end)
{
    std::vector<double> values;
    for (std::size_t r = begin; r < end; ++r)
        for (std::size_t c = 0; c < scores.cols(); ++c)
            values.push_back(scores(r, c));
    return stats::stddev(values);
}

} // namespace

NETCHAR_BENCH(fig05_ctrl_pca,
              "Figure 5: control-flow-metric PCA scatter, .NET vs "
              "SPEC CPU17 diversity")
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto dotnet = wl::suiteProfiles(wl::Suite::DotNet);
    const auto spec = wl::suiteProfiles(wl::Suite::SpecCpu17);

    auto profiles = dotnet;
    profiles.insert(profiles.end(), spec.begin(), spec.end());
    const auto results =
        bench::runSuite(ch, profiles, bench::standardOptions());

    std::vector<MetricVector> rows;
    for (const auto &r : results)
        rows.push_back(r.metrics);
    const auto ctrl = toMatrix(rows, controlFlowMetricIds());

    stats::PcaOptions opts;
    opts.components = 2;
    const auto pca = stats::runPca(ctrl, opts);

    ctx.printf("Figure 5: comparison between .NET and SPEC CPU17 "
               "(control-flow metrics 2, 7)\n\n");
    TextTable table({"Benchmark", "Suite", "PRCO1", "PRCO2"});
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        table.addRow({profiles[i].name,
                      wl::suiteName(profiles[i].suite),
                      fmtFixed(pca.scores(i, 0), 3),
                      fmtFixed(pca.scores(i, 1), 3)});
    }
    ctx.printf("%s\n", table.render().c_str());

    const double sd_dotnet = suiteStddev(pca.scores, 0, dotnet.size());
    const double sd_spec = suiteStddev(pca.scores, dotnet.size(),
                                       profiles.size());
    ctx.printf("Control-flow stddev: SPEC %.3f vs .NET %.3f -> "
               "ratio %.2fx (paper: 5.73x)\n",
               sd_spec, sd_dotnet, sd_spec / sd_dotnet);
    ctx.metric("stddev_ratio_spec_vs_dotnet", "x",
               sd_spec / sd_dotnet);
}
