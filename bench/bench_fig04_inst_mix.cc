/**
 * @file
 * Figure 4 reproduction: instruction-mix breakdown (branches, loads,
 * stores, other) per benchmark across the three Table IV subsets.
 *
 * Paper reference: SPEC has more loads (GM 35.2% vs ~29%) and fewer
 * stores (GM 11.5% vs ~16%) than the managed suites; managed suites
 * show little mix variety (common CLR code), SPEC is diverse
 * (xalancbmk branchy, FP programs nearly branchless).
 */

#include "common.hh"
#include "core/report.hh"

using namespace netchar;

namespace
{

struct MixGms
{
    std::vector<double> branches, loads, stores;
};

void
section(bench::Context &ctx, const char *title,
        const Characterizer &ch,
        const std::vector<wl::WorkloadProfile> &profiles, MixGms &gms)
{
    const auto results =
        bench::runSuite(ch, profiles, bench::standardOptions());
    std::vector<std::string> labels;
    std::vector<std::vector<double>> rows;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &c = results[i].counters;
        const double n = static_cast<double>(c.instructions);
        const double br = static_cast<double>(c.branches) / n;
        const double ld = static_cast<double>(c.loads) / n;
        const double st = static_cast<double>(c.stores) / n;
        labels.push_back(profiles[i].name);
        rows.push_back({br, ld, st, 1.0 - br - ld - st});
        gms.branches.push_back(br);
        gms.loads.push_back(ld);
        gms.stores.push_back(st);
    }
    ctx.printf("%s\n",
               stackedBars(title, labels,
                           {"branch", "load", "store", "other"},
                           rows, 60)
                   .c_str());
}

} // namespace

NETCHAR_BENCH(fig04_inst_mix,
              "Figure 4: branch/load/store instruction-mix "
              "breakdown per Table IV subset")
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());

    ctx.printf("Figure 4: percentage of instruction types in each "
               "benchmark\n\n");
    MixGms dotnet, aspnet, spec;
    section(ctx, ".NET subset", ch, bench::tableIvDotnet(), dotnet);
    section(ctx, "ASP.NET subset", ch, bench::tableIvAspnet(),
            aspnet);
    section(ctx, "SPEC CPU17 subset", ch, bench::tableIvSpec(),
            spec);

    TextTable table({"Suite", "GM branches", "GM loads", "GM stores",
                     "Paper loads", "Paper stores"});
    table.addRow({".NET",
                  fmtPercent(bench::geomeanFloored(dotnet.branches)),
                  fmtPercent(bench::geomeanFloored(dotnet.loads)),
                  fmtPercent(bench::geomeanFloored(dotnet.stores)),
                  "~29%", "~16%"});
    table.addRow({"ASP.NET",
                  fmtPercent(bench::geomeanFloored(aspnet.branches)),
                  fmtPercent(bench::geomeanFloored(aspnet.loads)),
                  fmtPercent(bench::geomeanFloored(aspnet.stores)),
                  "~29%", "~16%"});
    table.addRow({"SPEC CPU17",
                  fmtPercent(bench::geomeanFloored(spec.branches)),
                  fmtPercent(bench::geomeanFloored(spec.loads)),
                  fmtPercent(bench::geomeanFloored(spec.stores)),
                  "35.2%", "11.5%"});
    ctx.printf("%s\n", table.render().c_str());
    ctx.metric("spec_gm_loads_frac", "frac",
               bench::geomeanFloored(spec.loads));
    ctx.metric("spec_gm_stores_frac", "frac",
               bench::geomeanFloored(spec.stores));
}
