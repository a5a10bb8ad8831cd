/**
 * @file
 * Figure 11 reproduction: Top-Down profiles of the ASP.NET subset
 * running on 1, 2, 4, 8 and 16 cores.
 *
 * Paper shape: as core count grows, most benchmarks become more
 * backend bound (driven by L3-bound stalls; see Figure 12).
 */

#include "common.hh"
#include "core/report.hh"
#include "core/topdown.hh"
#include "stats/summary.hh"

using namespace netchar;

NETCHAR_BENCH(fig11_scaling_topdown,
              "Figure 11: ASP.NET Top-Down profile vs core count "
              "(1-16 cores)")
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profiles = bench::tableIvAspnet();
    const unsigned core_counts[] = {1, 2, 4, 8, 16};

    ctx.printf("Figure 11: Top-Down profile for ASP.NET "
               "applications on 1, 2, 4, 8, 16 cores\n\n");
    std::vector<double> mean_be_by_cores;
    for (unsigned cores : core_counts) {
        auto opts = bench::standardOptions();
        opts.cores = cores;
        // Keep total simulated work bounded across the sweep.
        opts.measuredInstructions = bench::scaledInstructions(
            1'000'000);
        const auto results = bench::runSuite(ch, profiles, opts);

        std::vector<std::string> labels;
        std::vector<std::vector<double>> rows;
        std::vector<double> be_fracs;
        for (std::size_t i = 0; i < results.size(); ++i) {
            labels.push_back(profiles[i].name);
            rows.push_back(
                bench::barValues(level1Rows(results[i].slots)));
            be_fracs.push_back(results[i].slots.categoryFraction(
                sim::SlotCategory::Backend));
        }
        mean_be_by_cores.push_back(stats::mean(be_fracs));
        ctx.printf("%s\n",
                   stackedBars(
                       std::to_string(cores) + " core(s)", labels,
                       {"Retiring", "Bad_Spec", "FE_Bound",
                        "BE_Bound"},
                       rows, 60)
                       .c_str());
    }

    ctx.printf("Mean backend-bound share by core count:\n");
    for (std::size_t i = 0; i < std::size(core_counts); ++i)
        ctx.printf("  %2u cores: %s\n", core_counts[i],
                   fmtPercent(mean_be_by_cores[i]).c_str());
    ctx.printf("Paper shape: backend-bound share grows with core "
               "count.\n");
    ctx.metric("backend_bound_mean_16c", "frac",
               mean_be_by_cores.back());
}
