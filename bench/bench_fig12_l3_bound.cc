/**
 * @file
 * Figure 12 reproduction: percentage of L3-bound stalls for the
 * ASP.NET subset at 1, 2, 4, 8, 16 cores, alongside the per-core LLC
 * MPKI.
 *
 * Paper shape: L3-bound stalls rise steeply with core count while
 * per-core LLC MPKI stays roughly flat — the extra stall time is
 * latency from contention at LLC slice ports / the NoC, not extra
 * misses.
 */

#include "common.hh"
#include "core/report.hh"
#include "stats/summary.hh"

using namespace netchar;

NETCHAR_BENCH(fig12_l3_bound,
              "Figure 12: ASP.NET L3-bound stall share and per-core "
              "LLC MPKI vs core count")
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profiles = bench::tableIvAspnet();
    const unsigned core_counts[] = {1, 2, 4, 8, 16};

    ctx.printf("Figure 12: L3-bound stall share and per-core LLC "
               "MPKI for ASP.NET vs core count\n\n");
    std::vector<std::string> header{"Benchmark"};
    for (unsigned c : core_counts) {
        header.push_back("L3% @" + std::to_string(c));
        header.push_back("MPKI @" + std::to_string(c));
    }
    TextTable table(header);

    std::vector<std::vector<double>> l3_by_cores(
        std::size(core_counts));
    std::vector<std::vector<double>> mpki_by_cores(
        std::size(core_counts));
    std::vector<std::vector<std::string>> rows(
        profiles.size(),
        std::vector<std::string>(header.size()));
    for (std::size_t i = 0; i < profiles.size(); ++i)
        rows[i][0] = profiles[i].name;

    for (std::size_t ci = 0; ci < std::size(core_counts); ++ci) {
        auto opts = bench::standardOptions();
        opts.cores = core_counts[ci];
        opts.measuredInstructions =
            bench::scaledInstructions(1'000'000);
        const auto results = bench::runSuite(ch, profiles, opts);
        for (std::size_t i = 0; i < results.size(); ++i) {
            const double l3 =
                results[i].slots.fraction(sim::SlotNode::BeL3Bound);
            const double mpki = results[i].metrics
                [static_cast<std::size_t>(MetricId::LlcMpki)];
            rows[i][1 + 2 * ci] = fmtPercent(l3);
            rows[i][2 + 2 * ci] = fmtFixed(mpki, 3);
            l3_by_cores[ci].push_back(l3);
            mpki_by_cores[ci].push_back(mpki);
        }
    }
    for (auto &row : rows)
        table.addRow(row);
    ctx.printf("%s\n", table.render().c_str());

    ctx.printf("Mean across the subset:\n");
    for (std::size_t ci = 0; ci < std::size(core_counts); ++ci)
        ctx.printf("  %2u cores: L3-bound %s of slots, per-core LLC "
                   "MPKI %s\n",
                   core_counts[ci],
                   fmtPercent(stats::mean(l3_by_cores[ci])).c_str(),
                   fmtFixed(stats::mean(mpki_by_cores[ci]), 3).c_str());
    ctx.printf("Paper shape: L3-bound share rises with cores; "
               "per-core LLC MPKI stays roughly stable.\n");
    ctx.metric("l3_bound_mean_16c", "frac",
               stats::mean(l3_by_cores.back()));
}
