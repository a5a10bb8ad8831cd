/**
 * @file
 * Ablation: the LLC/NoC contention model behind Figures 11-12. With
 * contention disabled, LLC access latency is flat regardless of core
 * count, so the L3-bound growth the paper measures must disappear —
 * demonstrating that the scaling bottleneck in the model (and, per
 * the paper's analysis, on real hardware) is slice-port/NoC latency
 * rather than extra misses.
 */

#include <vector>

#include "common.hh"
#include "core/report.hh"
#include "stats/summary.hh"

using namespace netchar;

namespace
{

/** Mean L3-bound share of the runs, summed in run order. */
double
meanL3Bound(const std::vector<RunResult> &runs)
{
    std::vector<double> shares;
    for (const auto &r : runs)
        shares.push_back(r.slots.fraction(sim::SlotNode::BeL3Bound));
    return stats::mean(shares);
}

} // namespace

NETCHAR_BENCH(ablation_noc,
              "Ablation: LLC slice/NoC contention model on vs off "
              "across core counts")
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profiles = bench::tableIvAspnet();
    const unsigned core_counts[] = {1, 4, 16};

    ctx.printf("Ablation: LLC slice/NoC contention on vs off "
               "(ASP.NET subset mean L3-bound share)\n\n");
    TextTable table({"Cores", "L3-bound (contention on)",
                     "L3-bound (contention off)"});
    double on_16c = 0.0, off_16c = 0.0;
    for (unsigned cores : core_counts) {
        // The options fix the measured length, so runSuite's scaling
        // of each profile's own length does not apply.
        RunOptions on = bench::standardOptions();
        on.cores = cores;
        on.measuredInstructions = bench::scaledInstructions(800'000);
        RunOptions off = on;
        off.noc.contentionEnabled = false;
        const double on_mean =
            meanL3Bound(bench::runSuite(ch, profiles, on));
        const double off_mean =
            meanL3Bound(bench::runSuite(ch, profiles, off));
        table.addRow({std::to_string(cores), fmtPercent(on_mean),
                      fmtPercent(off_mean)});
        if (cores == 16) {
            on_16c = on_mean;
            off_16c = off_mean;
        }
    }
    ctx.printf("%s\n", table.render().c_str());
    ctx.printf("Expected: with contention on, L3-bound share grows "
               "with core count (Fig 12); with it off, the share "
               "stays flat.\n");
    ctx.metric("l3_bound_16c_contention_on", "frac", on_16c);
    ctx.metric("l3_bound_16c_contention_off", "frac", off_16c);
}
