/**
 * @file
 * TraceEvent: one timestamped runtime event on the simulated timeline.
 *
 * The paper's measurement substrate pairs perf counters with LTTng
 * runtime traces — timestamped CLR event streams later sliced into
 * 1 ms samples (§VII). TraceEvent is the stream element of that
 * reproduction: a fixed-size POD stamped with the machine's simulated
 * clock (aggregate core cycles + retired instructions) plus a small
 * per-kind payload. Fixed size keeps the ring buffer bound exact and
 * the capture overhead flat.
 *
 * This header is dependency-free on purpose: the runtime and sim
 * layers emit events through header-only trace types without linking
 * the trace library (which sits above both).
 */

#ifndef NETCHAR_TRACE_EVENT_HH
#define NETCHAR_TRACE_EVENT_HH

#include <cstdint>
#include <iterator>
#include <string_view>
#include <utility>

namespace netchar::trace
{

/** Kinds of timeline events: the CLR events the study traces
 *  (rt::RuntimeEventType is the runtime-side alias). */
enum class TraceEventKind : std::uint8_t
{
    GcTriggered = 0,
    GcAllocationTick,
    JitStarted,
    ExceptionStart,
    ContentionStart,
    NumKinds,
};

/** One event kind's names. */
struct TraceEventKindInfo
{
    std::string_view name; ///< LTTng-style, "GC/Triggered"
    std::string_view key;  ///< export key, "gc_triggered"
    std::string_view arg0; ///< name of TraceEvent::arg0
    std::string_view arg1; ///< name of TraceEvent::arg1
};

/** The event kinds, in TraceEventKind order. */
inline constexpr TraceEventKindInfo kTraceEventKinds[] = {
    {"GC/Triggered", "gc_triggered", "gcInstructions", "bytesScanned"},
    {"GC/AllocationTick", "gc_allocation_tick", "tickBytes",
     "allocatedSinceGc"},
    {"Method/JittingStarted", "jit_started", "method",
     "compileInstructions"},
    {"Exception/Start", "exception_start", "arg0", "arg1"},
    {"Contention/Start", "contention_start", "arg0", "arg1"},
};
static_assert(std::size(kTraceEventKinds) ==
              static_cast<std::size_t>(TraceEventKind::NumKinds));

/** LTTng-style display name of an event kind. */
constexpr std::string_view
traceEventKindName(TraceEventKind kind)
{
    const auto k = static_cast<std::size_t>(kind);
    return k < std::size(kTraceEventKinds) ? kTraceEventKinds[k].name
                                           : "Unknown";
}

/** Names of the two payload arguments of an event kind. */
constexpr std::pair<std::string_view, std::string_view>
traceEventArgNames(TraceEventKind kind)
{
    const auto k = static_cast<std::size_t>(kind);
    if (k >= std::size(kTraceEventKinds))
        return {"arg0", "arg1"};
    return {kTraceEventKinds[k].arg0, kTraceEventKinds[k].arg1};
}

/**
 * One timestamped event. Timestamps are simulated, not host, time:
 * traces are therefore byte-identical for a given (profile, machine,
 * seed) no matter where or how parallel the capture ran.
 */
struct TraceEvent
{
    /** Aggregate core cycles at emission (the machine clock). */
    double cycles = 0.0;
    /** Aggregate retired instructions at emission. */
    std::uint64_t instructions = 0;
    /** Per-kind payload (see traceEventArgNames). */
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
    TraceEventKind kind = TraceEventKind::GcTriggered;
};

} // namespace netchar::trace

#endif // NETCHAR_TRACE_EVENT_HH
