/**
 * @file
 * Runtime-event / performance-counter correlation study (§VII-A):
 * Pearson correlation between per-interval runtime-event counts and
 * per-interval counter values, reproducing Figures 13a/13b.
 */

#ifndef NETCHAR_CORE_CORRELATION_HH
#define NETCHAR_CORE_CORRELATION_HH

#include <string>
#include <vector>

#include "core/characterize.hh"
#include "runtime/events.hh"
#include "trace/trace.hh"

namespace netchar
{

/** Counter series extracted from interval samples. */
enum class CounterSeries
{
    BranchMpki,
    L1iMpki,
    L1dMpki,
    L2Mpki,
    LlcMpki,
    ItlbMpki,
    PageFaultsPki,
    UselessPrefetches, ///< useless / issued ratio per interval
    Instructions,
    Ipc,
};

/** Display name of a counter series. */
std::string counterSeriesName(CounterSeries series);

/** Extract one per-interval series from samples. */
std::vector<double>
extractSeries(const std::vector<IntervalSample> &samples,
              CounterSeries series);

/** Extract an event-count series from samples. */
std::vector<double>
extractEventSeries(const std::vector<IntervalSample> &samples,
                   rt::RuntimeEventType type);

/** One row of Figure 13: counter name and correlation coefficient. */
struct CorrelationRow
{
    CounterSeries series;
    std::string name;
    /** Pearson correlation coefficient. */
    double r = 0.0;
};

/**
 * Pearson correlation of an event series against a standard set of
 * counters (the Figure 13 selection).
 */
std::vector<CorrelationRow>
correlateEvents(const std::vector<IntervalSample> &samples,
                rt::RuntimeEventType type);

/**
 * Figure 13 from a captured trace: re-slice the trace into
 * IntervalSample series at `interval_cycles` (trace::TraceAnalyzer)
 * and correlate. One capture serves every interval width — the 0.1 /
 * 1 / 10 ms sensitivity study no longer re-runs the benchmark.
 *
 * @param max_samples Cap on the number of intervals (all by default).
 */
std::vector<CorrelationRow>
correlateTrace(const trace::Trace &trace, rt::RuntimeEventType type,
               double interval_cycles, std::size_t max_samples = SIZE_MAX);

} // namespace netchar

#endif // NETCHAR_CORE_CORRELATION_HH
