/**
 * @file
 * Ablation: hardware-assisted GC (§VII-A2 / Conclusion). The paper
 * argues GC acceleration is doubly useful: it removes the collector's
 * instruction overhead while KEEPING the cache-locality benefit of
 * compaction. This ablation runs the .NET subset under aggressive
 * (server) GC with the collector in software vs offloaded to
 * hardware, plus a no-compaction control (workstation GC at a huge
 * heap, so collections never run).
 */

#include "common.hh"
#include "core/report.hh"

using namespace netchar;

NETCHAR_BENCH(ablation_gc_compact,
              "Ablation: software vs hardware-offloaded GC with a "
              "no-GC control over the .NET subset")
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profiles = bench::tableIvDotnet();
    constexpr std::uint64_t MiB = 1024 * 1024;

    ctx.printf("Ablation: GC executed in software vs offloaded to "
               "hardware (server GC, 48 MiB-scaled heap, 8x alloc "
               "pressure), plus a no-GC control\n\n");
    TextTable table({"Benchmark", "LLC noGC", "LLC swGC", "LLC hwGC",
                     "time swGC/noGC", "time hwGC/noGC"});
    // Three cells per benchmark, in one sweep: each cell's GC setup
    // lives in its profile copy, so every cell shares one RunOptions.
    std::vector<wl::WorkloadProfile> cells;
    for (const auto &p : profiles) {
        auto base = p;
        base.allocBytesPerInst *= 8.0;

        auto nogc = base;
        nogc.gcMode = rt::GcMode::Workstation;
        nogc.maxHeapBytes = 2048 * MiB; // never collects

        auto sw = base;
        sw.gcMode = rt::GcMode::Server;
        sw.maxHeapBytes = 48 * MiB;
        sw.gcAssist = rt::GcAssist::Software;

        auto hw = sw;
        hw.gcAssist = rt::GcAssist::Hardware;

        cells.insert(cells.end(), {nogc, sw, hw});
    }
    RunOptions opts = bench::standardOptions();
    opts.measuredInstructions = bench::scaledInstructions(1'500'000);
    const auto runs = bench::runSuite(ch, cells, opts);

    auto llc = [](const RunResult &r) {
        return r.metrics[static_cast<std::size_t>(MetricId::LlcMpki)];
    };
    std::vector<double> hw_speedups;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const RunResult &r_nogc = runs[3 * i];
        const RunResult &r_sw = runs[3 * i + 1];
        const RunResult &r_hw = runs[3 * i + 2];
        table.addRow({profiles[i].name, fmtFixed(llc(r_nogc), 3),
                      fmtFixed(llc(r_sw), 3), fmtFixed(llc(r_hw), 3),
                      fmtFixed(r_sw.seconds / r_nogc.seconds, 3),
                      fmtFixed(r_hw.seconds / r_nogc.seconds, 3)});
        hw_speedups.push_back(r_sw.seconds / r_hw.seconds);
    }
    ctx.printf("%s\n", table.render().c_str());
    ctx.printf("Geomean speedup of hardware GC over software GC: "
               "%sx\n",
               fmtFixed(bench::geomeanFloored(hw_speedups), 3)
                   .c_str());
    ctx.printf("Expected: sw/hw GC both cut LLC MPKI vs no-GC "
               "(compaction locality); hardware offload keeps that "
               "benefit without paying collector instructions.\n");
    ctx.metric("hw_gc_speedup_geomean", "x",
               bench::geomeanFloored(hw_speedups));
}
