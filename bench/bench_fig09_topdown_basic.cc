/**
 * @file
 * Figure 9 reproduction: basic Top-Down profile (Retiring /
 * Bad-Speculation / Frontend-Bound / Backend-Bound) for every
 * benchmark in the three Table IV subsets.
 *
 * Paper shape: ASP.NET (measured on a loaded multi-core server) is
 * the most backend bound; many .NET and ASP.NET benchmarks have a
 * large frontend-bound share; neither managed suite shows much bad
 * speculation, while SPEC's spread is wider.
 */

#include "common.hh"
#include "core/report.hh"
#include "core/topdown.hh"
#include "stats/summary.hh"

using namespace netchar;

namespace
{

void
section(bench::Context &ctx, const char *title,
        const Characterizer &ch,
        const std::vector<wl::WorkloadProfile> &profiles,
        const RunOptions &opts, std::vector<double> &be_fracs)
{
    const auto results = bench::runSuite(ch, profiles, opts);
    std::vector<std::string> labels;
    std::vector<std::vector<double>> rows;
    for (std::size_t i = 0; i < results.size(); ++i) {
        labels.push_back(profiles[i].name);
        rows.push_back(bench::barValues(level1Rows(results[i].slots)));
        be_fracs.push_back(results[i].slots.categoryFraction(
            sim::SlotCategory::Backend));
    }
    ctx.printf("%s\n",
               stackedBars(title, labels,
                           {"Retiring", "Bad_Spec", "FE_Bound",
                            "BE_Bound"},
                           rows, 60)
                   .c_str());
}

} // namespace

NETCHAR_BENCH(fig09_topdown_basic,
              "Figure 9: level-1 Top-Down breakdown for every "
              "Table IV benchmark")
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    auto asp_opts = bench::standardOptions();
    asp_opts.cores = 16; // the ASP.NET server runs loaded

    ctx.printf("Figure 9: basic Top-Down profile for all "
               "benchmarks\n\n");
    std::vector<double> be_dotnet, be_aspnet, be_spec;
    section(ctx, ".NET subset", ch, bench::tableIvDotnet(),
            bench::standardOptions(), be_dotnet);
    section(ctx, "ASP.NET subset (16 cores)", ch,
            bench::tableIvAspnet(), asp_opts, be_aspnet);
    section(ctx, "SPEC CPU17 subset", ch, bench::tableIvSpec(),
            bench::standardOptions(), be_spec);

    ctx.printf("Mean backend-bound share: .NET %s, ASP.NET %s, "
               "SPEC %s\n",
               fmtPercent(stats::mean(be_dotnet)).c_str(),
               fmtPercent(stats::mean(be_aspnet)).c_str(),
               fmtPercent(stats::mean(be_spec)).c_str());
    ctx.printf("Paper shape: ASP.NET is significantly backend "
               "bound; managed suites show little bad "
               "speculation.\n");
    ctx.metric("backend_bound_mean_aspnet", "frac",
               stats::mean(be_aspnet));
}
