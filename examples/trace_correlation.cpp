/**
 * @file
 * Timeline tracing walkthrough: capture ONE trace of a managed
 * benchmark, then re-slice it at several sampling intervals to
 * reproduce the paper's event/counter correlation study (§VII-A,
 * Figure 13) without re-running the benchmark per interval.
 *
 *   ./trace_correlation [benchmark-name [trace-out.json]]
 *
 * Steps: capture (run + timestamped event stream + periodic counter
 * records), summarize the trace, correlate at 0.1 / 1 / 10 simulated
 * ms and, when an output path is given, export a chrome://tracing
 * JSON you can load in Perfetto (~40 MB for the default benchmark).
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "core/characterize.hh"
#include "core/correlation.hh"
#include "core/report.hh"
#include "trace/analyzer.hh"
#include "trace/export_trace.hh"
#include "workloads/registry.hh"

using namespace netchar;

int
main(int argc, char **argv)
{
    const char *name = argc > 1 ? argv[1] : "System.Linq";
    const auto found = wl::findProfile(name);
    if (!found) {
        std::fprintf(stderr, "unknown benchmark '%s'\n", name);
        return EXIT_FAILURE;
    }

    // 1. Capture one traced run. The capture advances on a fixed
    //    instruction chunk grid, emitting a cumulative counter record
    //    per chunk and a timestamped event per CLR occurrence; both
    //    streams live in bounded drop-oldest rings.
    auto profile = *found;
    profile.tierUpCallThreshold = 32; // keep re-JITs flowing
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    RunOptions options;
    TraceOptions topts;
    // Just over three of the 10 ms windows below (a correlation needs
    // at least 3 samples), and a counter ring sized so the whole span
    // is retained: one record per ~1250 instruction chunk, about 131k
    // over 31 ms here (undersizing would drop the oldest records).
    topts.measuredCycles = ch.config().maxGhz * 1e6 * 31.0;
    topts.bufferSamples = 140'000;
    const CaptureResult cap = ch.capture(profile, options, topts);

    // 2. Summarize. Loss (dropped events/records) is observable, so
    //    an undersized ring can never silently skew the analysis.
    const trace::TraceAnalyzer analyzer(cap.trace);
    const auto summary = analyzer.summary();
    std::printf("=== trace of %s on %s ===\n",
                cap.trace.benchmark.c_str(),
                cap.trace.machine.c_str());
    std::printf(
        "counter records: %zu (%llu dropped)   span: %.2f ms\n",
        summary.counterSamples,
        static_cast<unsigned long long>(summary.droppedSamples),
        cap.trace.micros(summary.spanCycles) / 1e3);
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(trace::TraceEventKind::NumKinds);
         ++k) {
        std::printf(
            "  %-22s %llu\n",
            std::string(traceEventKindName(
                            static_cast<trace::TraceEventKind>(k)))
                .c_str(),
            static_cast<unsigned long long>(summary.eventCounts[k]));
    }
    std::printf("  dropped                %llu\n\n",
                static_cast<unsigned long long>(
                    summary.droppedEvents));

    // 3. The paper's interval-sensitivity question — does the 1 ms
    //    choice matter? — from the SAME capture: re-slice at 0.1, 1
    //    and 10 simulated ms and correlate JIT starts per width.
    for (const double ms : {0.1, 1.0, 10.0}) {
        const auto series = analyzer.resliceMillis(ms);
        std::printf("interval %.1f ms -> %zu samples\n", ms,
                    series.size());
        if (series.size() < 3)
            continue;
        for (const auto &row : correlateEvents(
                 series, rt::RuntimeEventType::JitStarted)) {
            if (row.name == "branch MPKI" ||
                row.name == "LLC MPKI" || row.name == "IPC")
                std::printf("  JIT starts vs %-12s r = %+.3f\n",
                            row.name.c_str(), row.r);
        }
    }

    // 4. Export for Perfetto (chrome://tracing JSON), if asked.
    //    Deterministic: rerunning this example writes byte-identical
    //    bytes.
    if (argc < 3)
        return EXIT_SUCCESS;
    const char *out = argv[2];
    std::ofstream file(out, std::ios::binary);
    file << trace::chromeTraceJson(cap.trace) << '\n';
    if (!file) {
        std::fprintf(stderr, "cannot write '%s'\n", out);
        return EXIT_FAILURE;
    }
    std::printf("\nwrote %s (load it at https://ui.perfetto.dev)\n",
                out);
    return EXIT_SUCCESS;
}
