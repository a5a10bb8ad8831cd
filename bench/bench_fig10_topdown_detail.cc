/**
 * @file
 * Figure 10 reproduction: detailed breakdown of empty pipeline slots
 * in the frontend (top) and backend (bottom) for the three Table IV
 * subsets.
 *
 * Paper shape: frontend losses split between DSB/MITE bandwidth and
 * latency events (I-cache, I-TLB, BTB re-steers) that are large for
 * .NET/ASP.NET; MS-switches are consistent across managed suites
 * (CLR microcoded ops). On the backend, ASP.NET is L3-bound while
 * SPEC is DRAM-bound; ASP.NET also shows notable L1-bound (D-cache
 * bandwidth) stalls.
 */

#include "common.hh"
#include "core/report.hh"
#include "core/topdown.hh"

using namespace netchar;

namespace
{

void
section(bench::Context &ctx, const char *name,
        const Characterizer &ch,
        const std::vector<wl::WorkloadProfile> &profiles,
        const RunOptions &opts)
{
    const auto results = bench::runSuite(ch, profiles, opts);
    std::vector<std::string> labels;
    std::vector<std::vector<double>> fe_rows, be_rows;
    for (std::size_t i = 0; i < results.size(); ++i) {
        labels.push_back(profiles[i].name);
        fe_rows.push_back(
            bench::barValues(frontendRows(results[i].slots)));
        be_rows.push_back(
            bench::barValues(backendRows(results[i].slots)));
    }
    ctx.printf("%s\n",
               stackedBars(std::string("Frontend breakdown: ") + name,
                           labels,
                           {"ICache", "ITLB", "BTB", "MS", "DSB_BW",
                            "MITE_BW"},
                           fe_rows, 60)
                   .c_str());
    ctx.printf("%s\n",
               stackedBars(std::string("Backend breakdown: ") + name,
                           labels,
                           {"L1", "L2", "L3", "DRAM", "Store",
                            "Ports", "Div"},
                           be_rows, 60)
                   .c_str());
}

} // namespace

NETCHAR_BENCH(fig10_topdown_detail,
              "Figure 10: detailed frontend/backend empty-slot "
              "breakdown per Table IV subset")
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    auto asp_opts = bench::standardOptions();
    asp_opts.cores = 16;

    ctx.printf("Figure 10: breakdown of empty pipeline slots in the "
               "Frontend and Backend\n");
    ctx.printf("(segments are fractions of that category's slots; "
               "FE = frontend, shares < 5%% can be noisy, as the "
               "paper notes)\n\n");
    section(ctx, ".NET subset", ch, bench::tableIvDotnet(),
            bench::standardOptions());
    section(ctx, "ASP.NET subset (16 cores)", ch,
            bench::tableIvAspnet(), asp_opts);
    section(ctx, "SPEC CPU17 subset", ch, bench::tableIvSpec(),
            bench::standardOptions());
    ctx.metric("sections", "count", 3.0);
}
