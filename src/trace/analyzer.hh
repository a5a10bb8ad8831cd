/**
 * @file
 * TraceAnalyzer: re-slices one captured trace into IntervalSample
 * series at ANY sampling interval.
 *
 * The legacy path re-ran a benchmark per interval width; a trace
 * makes the interval an analysis-time choice, so Figure 13 can be
 * reproduced at 0.1 / 1 / 10 ms from a single run. Slicing follows
 * exactly the live-sampling rule (Characterizer::sampleCycles): from
 * the previous boundary, the next boundary is the first counter
 * record whose cycle count reaches prev + interval. Because capture
 * emits a counter record at every advance chunk — the same chunk grid
 * live sampling advances on — a re-slice at the legacy interval is
 * bit-identical to the legacy series.
 *
 * Runtime events per interval are reconstructed from the event stream
 * via the records' eventSeq watermarks, which equals the aggregate
 * snapshot deltas as long as the event ring did not spill; intervals
 * whose events were dropped undercount (loss is observable through
 * Trace::events.dropped()).
 */

#ifndef NETCHAR_TRACE_ANALYZER_HH
#define NETCHAR_TRACE_ANALYZER_HH

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "trace/sample.hh"
#include "trace/trace.hh"

namespace netchar::trace
{

/** Aggregate view of one trace (events by kind, loss, span). */
struct TraceSummary
{
    /** Retained events per kind. */
    std::array<std::uint64_t,
               static_cast<std::size_t>(TraceEventKind::NumKinds)>
        eventCounts{};
    /** Events lost to the ring's spill policy. */
    std::uint64_t droppedEvents = 0;
    /** Counter records lost to the ring's spill policy. */
    std::uint64_t droppedSamples = 0;
    /** Counter records retained. */
    std::size_t counterSamples = 0;
    /** Cycle span covered by the retained counter records. */
    double spanCycles = 0.0;
};

/** Read-side analysis over one captured Trace. */
class TraceAnalyzer
{
  public:
    static constexpr std::size_t kNoLimit =
        std::numeric_limits<std::size_t>::max();

    /** @param trace Captured trace (not owned; must outlive this). */
    explicit TraceAnalyzer(const Trace &trace);

    /**
     * Slice the trace into fixed cycle windows (the paper's wall-time
     * sampling, in simulated cycles).
     *
     * @param interval_cycles Aggregate-cycle width of each sample.
     * @param max_samples Stop after this many samples.
     * @return One IntervalSample per complete window; the trailing
     *         partial window is discarded, exactly like live
     *         sampling which never returns one.
     */
    std::vector<IntervalSample>
    reslice(double interval_cycles,
            std::size_t max_samples = kNoLimit) const;

    /** As reslice(), with the interval in simulated milliseconds. */
    std::vector<IntervalSample>
    resliceMillis(double interval_ms,
                  std::size_t max_samples = kNoLimit) const;

    /** Event totals, loss counters and span of the trace. */
    TraceSummary summary() const;

    const Trace &trace() const { return trace_; }

  private:
    /** Retained events with sequence number <= seq, by kind. */
    std::array<std::uint64_t,
               static_cast<std::size_t>(TraceEventKind::NumKinds)>
    countsUpTo(std::uint64_t seq) const;

    const Trace &trace_;
    /**
     * prefix_[i][k]: events of kind k among the first i retained
     * events; prefix_.size() == events.size() + 1. Built once so each
     * re-slice is O(samples), not O(events x samples).
     */
    std::vector<std::array<
        std::uint64_t,
        static_cast<std::size_t>(TraceEventKind::NumKinds)>>
        prefix_;
};

} // namespace netchar::trace

#endif // NETCHAR_TRACE_ANALYZER_HH
