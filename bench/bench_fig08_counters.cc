/**
 * @file
 * Figure 8 reproduction: basic performance-counter comparison of the
 * three Table IV subsets on x86-64 (CPI, branch/L1i/L1d/L2/LLC/iTLB
 * MPKIs).
 *
 * Paper reference geomeans: ASP.NET L1d 15.9 vs SPEC 29; ASP.NET L2
 * 20.4 vs SPEC 11; ASP.NET LLC 0.16 vs SPEC 0.98; .NET micro much
 * lower everywhere (2.3 / 2.2 / 0.01). Managed suites have markedly
 * higher I-side (L1i, iTLB) MPKIs; ASP.NET has the highest CPI.
 */

#include "common.hh"
#include "core/report.hh"

using namespace netchar;

namespace
{

struct SuiteData
{
    std::string name;
    std::vector<wl::WorkloadProfile> profiles;
    std::vector<RunResult> results;
};

double
gmMetric(const SuiteData &suite, MetricId id)
{
    std::vector<double> xs;
    for (const auto &r : suite.results)
        xs.push_back(r.metrics[static_cast<std::size_t>(id)]);
    return bench::geomeanFloored(xs);
}

} // namespace

NETCHAR_BENCH(fig08_counters,
              "Figure 8: CPI and cache/TLB MPKI counter comparison "
              "across the Table IV subsets")
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    // The paper's ASP.NET measurements come from a loaded server, so
    // the ASP.NET subset runs on many cores.
    auto asp_opts = bench::standardOptions();
    asp_opts.cores = 16;

    std::vector<SuiteData> suites;
    suites.push_back({".NET", bench::tableIvDotnet(), {}});
    suites.push_back({"ASP.NET", bench::tableIvAspnet(), {}});
    suites.push_back({"SPEC CPU17", bench::tableIvSpec(), {}});
    suites[0].results = bench::runSuite(ch, suites[0].profiles,
                                        bench::standardOptions());
    suites[1].results =
        bench::runSuite(ch, suites[1].profiles, asp_opts);
    suites[2].results = bench::runSuite(ch, suites[2].profiles,
                                        bench::standardOptions());

    ctx.printf("Figure 8: performance counter comparisons on "
               "x86-64\n\n");

    const struct
    {
        MetricId id;
        const char *label;
    } metrics[] = {
        {MetricId::Cpi, "CPI"},
        {MetricId::BranchMpki, "Branch MPKI"},
        {MetricId::L1iMpki, "L1 I-cache MPKI"},
        {MetricId::L1dMpki, "L1 D-cache MPKI"},
        {MetricId::L2Mpki, "L2 MPKI"},
        {MetricId::LlcMpki, "LLC MPKI"},
        {MetricId::ItlbMpki, "I-TLB MPKI"},
        {MetricId::DtlbLoadMpki, "D-TLB load MPKI"},
    };

    for (const auto &metric : metrics) {
        std::vector<Bar> bars;
        for (const auto &suite : suites) {
            for (std::size_t i = 0; i < suite.results.size(); ++i) {
                bars.push_back(
                    {suite.name + "/" + suite.profiles[i].name,
                     suite.results[i].metrics[static_cast<std::size_t>(
                         metric.id)]});
            }
        }
        ctx.printf("%s\n", barChart(metric.label, bars, 46).c_str());
    }

    ctx.printf("Suite geomeans (paper values in parentheses):\n");
    TextTable table({"Metric", ".NET", "ASP.NET", "SPEC CPU17"});
    table.addRow({"CPI", fmtFixed(gmMetric(suites[0], MetricId::Cpi), 2),
                  fmtFixed(gmMetric(suites[1], MetricId::Cpi), 2),
                  fmtFixed(gmMetric(suites[2], MetricId::Cpi), 2)});
    table.addRow(
        {"L1d MPKI (2.3 / 15.9 / 29)",
         fmtFixed(gmMetric(suites[0], MetricId::L1dMpki), 2),
         fmtFixed(gmMetric(suites[1], MetricId::L1dMpki), 2),
         fmtFixed(gmMetric(suites[2], MetricId::L1dMpki), 2)});
    table.addRow(
        {"L1i MPKI (2.2 / high / low)",
         fmtFixed(gmMetric(suites[0], MetricId::L1iMpki), 2),
         fmtFixed(gmMetric(suites[1], MetricId::L1iMpki), 2),
         fmtFixed(gmMetric(suites[2], MetricId::L1iMpki), 2)});
    table.addRow(
        {"L2 MPKI (- / 20.4 / 11)",
         fmtFixed(gmMetric(suites[0], MetricId::L2Mpki), 2),
         fmtFixed(gmMetric(suites[1], MetricId::L2Mpki), 2),
         fmtFixed(gmMetric(suites[2], MetricId::L2Mpki), 2)});
    table.addRow(
        {"LLC MPKI (0.01 / 0.16 / 0.98)",
         fmtFixed(gmMetric(suites[0], MetricId::LlcMpki), 3),
         fmtFixed(gmMetric(suites[1], MetricId::LlcMpki), 3),
         fmtFixed(gmMetric(suites[2], MetricId::LlcMpki), 3)});
    ctx.printf("%s\n", table.render().c_str());
    ctx.metric("cpi_gm_aspnet", "cpi",
               gmMetric(suites[1], MetricId::Cpi));
    ctx.metric("l1d_mpki_gm_spec", "mpki",
               gmMetric(suites[2], MetricId::L1dMpki));
}
