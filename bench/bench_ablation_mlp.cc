/**
 * @file
 * Ablation: the memory-level-parallelism exposure model. The
 * simulator divides each miss's exposed latency by the workload's
 * MLP; this sweep shows how CPI of a memory-bound benchmark (mcf)
 * responds, versus a compute-bound one (exchange2), validating that
 * the DESIGN.md decision to model overlap via MLP (instead of serial
 * miss latency) is what keeps memory-bound CPIs in realistic ranges.
 */

#include "common.hh"
#include "core/report.hh"
#include "workloads/registry.hh"

using namespace netchar;

NETCHAR_BENCH(ablation_mlp,
              "Ablation: CPI sensitivity of mcf vs exchange2 to the "
              "modeled memory-level parallelism")
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const double mlps[] = {1.0, 2.0, 4.0, 8.0};

    ctx.printf("Ablation: CPI sensitivity to modeled memory-level "
               "parallelism\n\n");
    TextTable table({"MLP", "mcf CPI", "mcf LLC MPKI",
                     "exchange2 CPI"});
    // mcf and exchange2 at every MLP, in one sweep: the MLP lives in
    // each profile copy.
    std::vector<wl::WorkloadProfile> cells;
    for (double mlp : mlps) {
        for (const char *name : {"mcf", "exchange2"}) {
            auto p = *wl::findProfile(name);
            p.mlp = mlp;
            cells.push_back(std::move(p));
        }
    }
    const auto runs =
        bench::runSuite(ch, cells, bench::standardOptions());
    double mcf_cpi_mlp1 = 0.0, mcf_cpi_mlp8 = 0.0;
    for (std::size_t i = 0; i < std::size(mlps); ++i) {
        const double mlp = mlps[i];
        const RunResult &r_mcf = runs[2 * i];
        const RunResult &r_exch = runs[2 * i + 1];
        if (mlp == 1.0)
            mcf_cpi_mlp1 = r_mcf.counters.cpi();
        if (mlp == 8.0)
            mcf_cpi_mlp8 = r_mcf.counters.cpi();
        table.addRow(
            {fmtFixed(mlp, 0), fmtFixed(r_mcf.counters.cpi(), 2),
             fmtFixed(r_mcf.metrics[static_cast<std::size_t>(
                          MetricId::LlcMpki)],
                      2),
             fmtFixed(r_exch.counters.cpi(), 2)});
    }
    ctx.printf("%s\n", table.render().c_str());
    ctx.printf("Expected: mcf CPI falls steeply as MLP grows (misses "
               "overlap) while its MPKIs stay constant; exchange2 is "
               "insensitive (compute bound).\n");
    ctx.metric("mcf_cpi_ratio_mlp1_vs_mlp8", "x",
               mcf_cpi_mlp8 > 0.0 ? mcf_cpi_mlp1 / mcf_cpi_mlp8
                                  : 0.0);
}
