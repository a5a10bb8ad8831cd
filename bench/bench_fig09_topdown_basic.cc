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

#include <cstdio>

#include "common.hh"
#include "core/report.hh"
#include "core/topdown.hh"

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
        const auto td = TopDownProfile::fromSlots(results[i].slots);
        labels.push_back(profiles[i].name);
        rows.push_back({td.level1.retiring, td.level1.badSpeculation,
                        td.level1.frontendBound,
                        td.level1.backendBound});
        be_fracs.push_back(td.level1.backendBound);
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
    std::fprintf(stderr, "Figure 9: basic Top-Down profiles\n");
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

    auto mean = [](const std::vector<double> &xs) {
        double acc = 0.0;
        for (double x : xs)
            acc += x;
        return acc / static_cast<double>(xs.size());
    };
    ctx.printf("Mean backend-bound share: .NET %s, ASP.NET %s, "
               "SPEC %s\n",
               fmtPercent(mean(be_dotnet)).c_str(),
               fmtPercent(mean(be_aspnet)).c_str(),
               fmtPercent(mean(be_spec)).c_str());
    ctx.printf("Paper shape: ASP.NET is significantly backend "
               "bound; managed suites show little bad "
               "speculation.\n");
    ctx.metric("backend_bound_mean_aspnet", "frac",
               mean(be_aspnet));
}
