/**
 * @file
 * Figure 3 reproduction: fraction of kernel instructions per
 * benchmark for the three Table IV subsets.
 *
 * Paper shape: ASP.NET executes by far the most kernel code (the
 * networking stack), the .NET microbenchmarks a modest amount (CLR
 * services), SPEC CPU17 essentially none.
 */

#include "common.hh"
#include "core/report.hh"
#include "stats/summary.hh"

using namespace netchar;

namespace
{

void
section(bench::Context &ctx, const char *title,
        const Characterizer &ch,
        const std::vector<wl::WorkloadProfile> &profiles,
        std::vector<double> &fractions)
{
    const auto results =
        bench::runSuite(ch, profiles, bench::standardOptions());
    std::vector<Bar> bars;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &c = results[i].counters;
        const double frac =
            static_cast<double>(c.kernelInstructions) /
            static_cast<double>(c.instructions);
        bars.push_back({profiles[i].name, frac});
        fractions.push_back(frac);
    }
    ctx.printf("%s\n", barChart(title, bars, 50, 0.6).c_str());
}

} // namespace

NETCHAR_BENCH(fig03_kernel_frac,
              "Figure 3: kernel-instruction fraction per benchmark "
              "across the Table IV subsets")
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());

    ctx.printf("Figure 3: fraction of kernel instructions in each "
               "benchmark\n\n");
    std::vector<double> dotnet, aspnet, spec;
    section(ctx, ".NET subset", ch, bench::tableIvDotnet(), dotnet);
    section(ctx, "ASP.NET subset", ch, bench::tableIvAspnet(),
            aspnet);
    section(ctx, "SPEC CPU17 subset", ch, bench::tableIvSpec(),
            spec);

    ctx.printf("Mean kernel fraction: .NET %s, ASP.NET %s, "
               "SPEC %s\n",
               fmtPercent(stats::mean(dotnet)).c_str(),
               fmtPercent(stats::mean(aspnet)).c_str(),
               fmtPercent(stats::mean(spec)).c_str());
    ctx.printf("Paper shape: ASP.NET >> .NET >> SPEC (networking "
               "stack dominates ASP.NET kernel time).\n");
    ctx.metric("kernel_frac_mean_aspnet", "frac",
               stats::mean(aspnet));
}
