/**
 * @file
 * Scenario: capacity planning for an ASP.NET-style server — the
 * §VI-B2 scaling analysis as a tool. Sweeps core counts for a web
 * workload, reports per-core throughput, the L3-bound stall share
 * and LLC latency inflation, and flags the knee where adding cores
 * stops paying (LLC slice/NoC contention).
 */

#include <cstdio>

#include "core/characterize.hh"
#include "core/report.hh"
#include "workloads/registry.hh"

using namespace netchar;

int
main()
{
    auto server = *wl::findProfile("DbFortunesRaw");
    server.instructions = 700'000;

    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());

    std::printf("Core-scaling study for '%s' on %s\n\n",
                server.name.c_str(), ch.config().name.c_str());
    TextTable table({"Cores", "Aggregate M-inst/s", "Per-core IPC",
                     "L3-bound share", "LLC MPKI/core"});

    double prev_throughput = 0.0;
    unsigned knee = 0;
    for (unsigned cores : {1u, 2u, 4u, 8u, 12u, 16u}) {
        RunOptions opts;
        opts.warmupInstructions = 400'000;
        opts.cores = cores;
        const auto r = ch.run(server, opts);
        const double mips = r.instructionsPerSecond / 1e6;
        table.addRow(
            {std::to_string(cores), fmtFixed(mips, 0),
             fmtFixed(r.counters.ipc(), 2),
             fmtPercent(r.slots.fraction(sim::SlotNode::BeL3Bound)),
             fmtFixed(r.metrics[static_cast<std::size_t>(
                          MetricId::LlcMpki)],
                      3)});
        // Knee: the first doubling that fails to add >=60% throughput.
        if (prev_throughput > 0.0 && knee == 0 &&
            mips < 1.6 * prev_throughput)
            knee = cores;
        prev_throughput = mips;
    }
    std::printf("%s\n", table.render().c_str());
    if (knee != 0)
        std::printf("Scaling knee around %u cores: L3-bound stalls "
                    "(slice-port/NoC contention) eat the added "
                    "cores, matching the paper's Fig 11/12 "
                    "analysis.\n",
                    knee);
    else
        std::printf("No scaling knee up to 16 cores in this "
                    "configuration.\n");
    return 0;
}
