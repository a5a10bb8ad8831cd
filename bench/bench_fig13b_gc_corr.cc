/**
 * @file
 * Figure 13b reproduction: Pearson correlation of GC invocations
 * with performance counters over cycle-interval samples of the
 * ASP.NET subset (§VII-A2).
 *
 * Setup notes (see DESIGN.md's scale policy): the paper uses a small
 * heap to make GC frequent; here the working sets are additionally
 * scaled up (4x) so the heap spread rivals LLC capacity — without
 * that, compaction cannot show an LLC-level benefit inside short
 * windows. The paper observed counter responses delayed 10 us - 5 ms
 * after the events, so alongside same-interval correlations this
 * bench reports lag-1 correlations (event in interval i vs counter
 * in interval i+1), which is where the compaction benefit lands.
 *
 * Paper shape: LLC MPKI responds negatively (~8% drop, compaction
 * locality), instructions positively (collector code), IPC
 * positively overall.
 */

#include <algorithm>
#include <map>
#include <vector>

#include "common.hh"
#include "core/correlation.hh"
#include "core/report.hh"
#include "stats/summary.hh"
#include "trace/analyzer.hh"

using namespace netchar;

namespace
{

/** Lag-1 Pearson: event[i] vs counter[i+1]. */
double
lagCorrelation(const std::vector<IntervalSample> &samples,
               rt::RuntimeEventType type, CounterSeries series)
{
    const auto events = extractEventSeries(samples, type);
    const auto counters = extractSeries(samples, series);
    if (events.size() < 3)
        return 0.0;
    std::vector<double> e(events.begin(), events.end() - 1);
    std::vector<double> c(counters.begin() + 1, counters.end());
    return stats::pearson(e, c);
}

/**
 * Event-aligned before/after means: for every GC interval g, average
 * counter values over the quiet interval before (g-1) and after
 * (g+1). This is how the paper manually verified causality (§VII-A:
 * "changes in the performance counter values were observed after
 * changes in the ... GC event samples").
 */
struct PrePost
{
    double pre = 0.0;
    double post = 0.0;
    int events = 0;
};

PrePost
alignedPrePost(const std::vector<IntervalSample> &samples,
               CounterSeries series)
{
    const auto counters = extractSeries(samples, series);
    PrePost out;
    for (std::size_t i = 1; i + 1 < samples.size(); ++i) {
        if (samples[i].events.gcTriggered == 0)
            continue;
        if (samples[i - 1].events.gcTriggered != 0 ||
            samples[i + 1].events.gcTriggered != 0)
            continue; // need quiet neighbors
        out.pre += counters[i - 1];
        out.post += counters[i + 1];
        ++out.events;
    }
    if (out.events > 0) {
        out.pre /= out.events;
        out.post /= out.events;
    }
    return out;
}

} // namespace

NETCHAR_BENCH(fig13b_gc_corr,
              "Figure 13b: correlation of GC invocations with "
              "counters, incl. lag-1 and event-aligned views")
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const double interval_cycles =
        static_cast<double>(bench::scaledInstructions(120'000));
    const std::size_t samples = 60;

    // One capture per benchmark; the interval series is a re-slice.
    TraceOptions topts;
    topts.measuredCycles =
        interval_cycles * static_cast<double>(samples + 4);

    // Each capture's GC setup lives in its profile copy, so the
    // captures share one RunOptions and run as one sweep.
    auto profiles = bench::tableIvAspnet();
    for (auto &profile : profiles) {
        profile.tierUpCallThreshold = 0; // quiesce JIT noise
        // LLC-scale working set so compaction matters at this level.
        profile.dataFootprint *= 4;
        profile.allocBytesPerInst *= 6.0;
        // Server GC at a small heap: collections every few sampled
        // intervals, as in the paper's small-heap configuration.
        profile.gcMode = rt::GcMode::Server;
        profile.maxHeapBytes = profile.dataFootprint * 2;
    }

    std::map<std::string, std::vector<double>> same;
    std::vector<double> lag_llc, lag_ipc;
    PrePost llc_pp, ipc_pp, inst_pp;
    for (const auto &cap : bench::captureSuite(
             ch, profiles, bench::standardOptions(), topts)) {
        const auto series = trace::TraceAnalyzer(cap.trace)
                                .reslice(interval_cycles, samples);
        for (const auto &row : correlateEvents(
                 series, rt::RuntimeEventType::GcTriggered))
            same[row.name].push_back(row.r);
        lag_llc.push_back(lagCorrelation(
            series, rt::RuntimeEventType::GcTriggered,
            CounterSeries::LlcMpki));
        lag_ipc.push_back(lagCorrelation(
            series, rt::RuntimeEventType::GcTriggered,
            CounterSeries::Ipc));
        for (const auto &[pp, counter] :
             {std::pair{&llc_pp, CounterSeries::LlcMpki},
              std::pair{&ipc_pp, CounterSeries::Ipc},
              std::pair{&inst_pp, CounterSeries::Instructions}}) {
            const auto one = alignedPrePost(series, counter);
            pp->pre += one.pre * one.events;
            pp->post += one.post * one.events;
            pp->events += one.events;
        }
    }

    ctx.printf("Figure 13b: correlation of GC invocations with "
               "performance counters (ASP.NET subset, small heap, "
               "LLC-scale working sets)\n\n");
    TextTable table({"Counter", "Mean r", "Min r", "Max r",
                     "Paper direction"});
    const std::map<std::string, std::string> expectations{
        {"LLC MPKI", "negative (locality gain)"},
        {"instructions", "positive (GC code)"},
        {"IPC", "positive"},
    };
    for (const auto &[name, rs] : same) {
        auto it = expectations.find(name);
        table.addRow({name, fmtFixed(stats::mean(rs), 3),
                      fmtFixed(std::ranges::min(rs), 3),
                      fmtFixed(std::ranges::max(rs), 3),
                      it != expectations.end() ? it->second : "-"});
    }
    ctx.printf("%s\n", table.render().c_str());

    ctx.printf("Lag-1 correlations (event -> next interval, the "
               "paper's delayed response):\n");
    ctx.printf("  LLC MPKI (next): mean r = %s  (paper: negative)\n",
               fmtFixed(stats::mean(lag_llc), 3).c_str());
    ctx.printf("  IPC      (next): mean r = %s  (paper: positive)\n",
               fmtFixed(stats::mean(lag_ipc), 3).c_str());

    for (PrePost *pp : {&llc_pp, &ipc_pp, &inst_pp}) {
        if (pp->events > 0) {
            pp->pre /= pp->events;
            pp->post /= pp->events;
        }
    }
    ctx.printf("\nEvent-aligned means over the quiet intervals "
               "before/after each GC (%d events):\n",
               llc_pp.events);
    auto pct = [](const PrePost &pp) {
        return pp.pre != 0.0
            ? 100.0 * (pp.post - pp.pre) / pp.pre
            : 0.0;
    };
    ctx.printf("  LLC MPKI     : %.3f -> %.3f (%+.1f%%)   "
               "(paper: ~-8%%)\n",
               llc_pp.pre, llc_pp.post, pct(llc_pp));
    ctx.printf("  IPC          : %.3f -> %.3f (%+.1f%%)   "
               "(paper: positive)\n",
               ipc_pp.pre, ipc_pp.post, pct(ipc_pp));
    ctx.printf("  instructions : %.0f -> %.0f (%+.1f%%)   "
               "(paper: footprint increases)\n",
               inst_pp.pre, inst_pp.post, pct(inst_pp));
    ctx.metric("llc_mpki_lag1_mean_r", "r", stats::mean(lag_llc));
    ctx.metric("gc_events_aligned", "count",
               static_cast<double>(llc_pp.events));
}
