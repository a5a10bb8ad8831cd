/**
 * @file
 * Runtime event tracing, the LTTng stand-in of the reproduction.
 *
 * Table I's run-time metrics (19-23) are counts of CLR events per kilo
 * instruction: GC/Triggered, GC/AllocationTick, Method/JittingStarted,
 * Exception/Start and Contention/Start. EventTrace accumulates them
 * and supports snapshot/delta, which the §VII correlation study uses
 * to build 1 ms sample series.
 *
 * When a trace::TraceRecorder is attached, every record() call also
 * emits a timestamped TraceEvent into the capture's ring buffer; the
 * aggregate counts here are then exactly the cheap derived view of
 * that stream (asserted by tests/runtime/events_test.cc).
 */

#ifndef NETCHAR_RUNTIME_EVENTS_HH
#define NETCHAR_RUNTIME_EVENTS_HH

#include <cstdint>
#include <iterator>

#include "trace/event.hh"

namespace netchar::trace
{
class TraceRecorder;
}

namespace netchar::rt
{

/**
 * CLR event kinds traced by the study: the runtime-side spelling of
 * trace::TraceEventKind, whose traceEventKindName() names each one.
 */
using RuntimeEventType = trace::TraceEventKind;

/** Plain aggregate of event counts, with add/delta for sampling. */
struct RuntimeEventCounts
{
    std::uint64_t gcTriggered = 0;
    std::uint64_t gcAllocationTick = 0;
    std::uint64_t jitStarted = 0;
    std::uint64_t exceptionStart = 0;
    std::uint64_t contentionStart = 0;

    void add(const RuntimeEventCounts &other);

    /**
     * Elementwise difference for interval sampling. Saturates at 0
     * per field when `since` is ahead (a stale or mismatched
     * snapshot) instead of underflow-wrapping to huge counts.
     */
    RuntimeEventCounts delta(const RuntimeEventCounts &since) const;

    /** Count for one event type. */
    std::uint64_t count(RuntimeEventType type) const;

    /** Events per kilo-instruction. */
    double pki(RuntimeEventType type, std::uint64_t instructions) const;
};

/** The count field of each event kind, in enum order. */
inline constexpr std::uint64_t RuntimeEventCounts::*kEventCountFields[] = {
    &RuntimeEventCounts::gcTriggered, &RuntimeEventCounts::gcAllocationTick,
    &RuntimeEventCounts::jitStarted, &RuntimeEventCounts::exceptionStart,
    &RuntimeEventCounts::contentionStart,
};
static_assert(std::size(kEventCountFields) ==
              static_cast<std::size_t>(RuntimeEventType::NumKinds));

/**
 * Cumulative event trace for one benchmark run. record() is called by
 * the CLR model as events fire; counts() is snapshotted per sampling
 * interval by the correlation study.
 */
class EventTrace
{
  public:
    /**
     * Record one occurrence of an event, bumping the aggregate count
     * and, when a recorder is attached, emitting a timestamped
     * TraceEvent with the given payload. RuntimeEventType::NumKinds
     * is a misuse guard: it is silently ignored.
     */
    void record(RuntimeEventType type, std::uint64_t arg0 = 0,
                std::uint64_t arg1 = 0);

    /** Cumulative counts since construction or reset. */
    const RuntimeEventCounts &counts() const { return counts_; }

    /** Zero all counts (keeps any attached recorder). */
    void reset() { counts_ = RuntimeEventCounts{}; }

    /**
     * Attach (or detach with nullptr) the timeline recorder events
     * are mirrored into. Not owned; must outlive the attachment.
     */
    void setRecorder(trace::TraceRecorder *recorder)
    {
        recorder_ = recorder;
    }

    trace::TraceRecorder *recorder() const { return recorder_; }

  private:
    RuntimeEventCounts counts_;
    trace::TraceRecorder *recorder_ = nullptr;
};

} // namespace netchar::rt

#endif // NETCHAR_RUNTIME_EVENTS_HH
