/**
 * @file
 * Unit tests for rt::RuntimeEventCounts and rt::EventTrace edge
 * cases: zero-instruction pki, saturating deltas, full enumerator
 * coverage (including the NumKinds misuse guard), the LTTng-style
 * names and the trace
 * recorder mirroring contract.
 */

#include <gtest/gtest.h>

#include "runtime/events.hh"
#include "trace/recorder.hh"

namespace netchar::rt
{
namespace
{

const RuntimeEventType kAllTypes[] = {
    RuntimeEventType::GcTriggered, RuntimeEventType::GcAllocationTick,
    RuntimeEventType::JitStarted, RuntimeEventType::ExceptionStart,
    RuntimeEventType::ContentionStart,
};

/** Deterministic fake clock: advances one cycle per query. */
class StepClock : public trace::TraceClock
{
  public:
    double cycles() const override
    {
        return static_cast<double>(++ticks_);
    }
    std::uint64_t instructions() const override { return ticks_ * 10; }

  private:
    mutable std::uint64_t ticks_ = 0;
};

RuntimeEventCounts
makeCounts(std::uint64_t gc, std::uint64_t tick, std::uint64_t jit,
           std::uint64_t exc, std::uint64_t con)
{
    RuntimeEventCounts c;
    c.gcTriggered = gc;
    c.gcAllocationTick = tick;
    c.jitStarted = jit;
    c.exceptionStart = exc;
    c.contentionStart = con;
    return c;
}

TEST(RuntimeEventCountsTest, PkiWithZeroInstructionsIsZero)
{
    const auto counts = makeCounts(5, 10, 3, 2, 1);
    for (const auto type : kAllTypes)
        EXPECT_EQ(counts.pki(type, 0), 0.0);
}

TEST(RuntimeEventCountsTest, PkiScalesPerKiloInstruction)
{
    const auto counts = makeCounts(4, 0, 0, 0, 0);
    EXPECT_DOUBLE_EQ(
        counts.pki(RuntimeEventType::GcTriggered, 2000), 2.0);
}

TEST(RuntimeEventCountsTest, DeltaDoesNotUnderflowWrap)
{
    // "since" ahead of "now": a stale or mismatched snapshot must
    // yield zeros, never 2^64-ish counts.
    const auto now = makeCounts(1, 2, 3, 4, 5);
    const auto since = makeCounts(10, 20, 30, 40, 50);
    const auto d = now.delta(since);
    for (const auto type : kAllTypes)
        EXPECT_EQ(d.count(type), 0u) << trace::traceEventKindName(type);
}

TEST(RuntimeEventCountsTest, DeltaMixedDirectionsSaturatePerField)
{
    const auto now = makeCounts(10, 1, 10, 1, 10);
    const auto since = makeCounts(4, 5, 4, 5, 4);
    const auto d = now.delta(since);
    EXPECT_EQ(d.gcTriggered, 6u);
    EXPECT_EQ(d.gcAllocationTick, 0u);
    EXPECT_EQ(d.jitStarted, 6u);
    EXPECT_EQ(d.exceptionStart, 0u);
    EXPECT_EQ(d.contentionStart, 6u);
}

TEST(RuntimeEventCountsTest, CountCoversEveryEnumerator)
{
    const auto counts = makeCounts(1, 2, 3, 4, 5);
    EXPECT_EQ(counts.count(RuntimeEventType::GcTriggered), 1u);
    EXPECT_EQ(counts.count(RuntimeEventType::GcAllocationTick), 2u);
    EXPECT_EQ(counts.count(RuntimeEventType::JitStarted), 3u);
    EXPECT_EQ(counts.count(RuntimeEventType::ExceptionStart), 4u);
    EXPECT_EQ(counts.count(RuntimeEventType::ContentionStart), 5u);
    // NumKinds is a misuse guard, not a counter.
    EXPECT_EQ(counts.count(RuntimeEventType::NumKinds), 0u);
}

TEST(RuntimeEventNameTest, NamesEveryEnumerator)
{
    using trace::traceEventKindName;
    EXPECT_EQ(traceEventKindName(RuntimeEventType::GcTriggered),
              "GC/Triggered");
    EXPECT_EQ(traceEventKindName(RuntimeEventType::GcAllocationTick),
              "GC/AllocationTick");
    EXPECT_EQ(traceEventKindName(RuntimeEventType::JitStarted),
              "Method/JittingStarted");
    EXPECT_EQ(traceEventKindName(RuntimeEventType::ExceptionStart),
              "Exception/Start");
    EXPECT_EQ(traceEventKindName(RuntimeEventType::ContentionStart),
              "Contention/Start");
    EXPECT_EQ(traceEventKindName(RuntimeEventType::NumKinds),
              "Unknown");
}

TEST(EventTraceTest, RecordIgnoresNumTypes)
{
    EventTrace trace;
    trace.record(RuntimeEventType::NumKinds);
    for (const auto type : kAllTypes)
        EXPECT_EQ(trace.counts().count(type), 0u);
}

TEST(EventTraceTest, RecorderMirrorsAggregates)
{
    trace::TraceBuffer<trace::TraceEvent> ring(64);
    StepClock clock;
    trace::TraceRecorder recorder(&ring, &clock);

    EventTrace trace;
    trace.setRecorder(&recorder);
    trace.record(RuntimeEventType::GcTriggered, 111, 222);
    trace.record(RuntimeEventType::JitStarted, 7, 333);
    trace.record(RuntimeEventType::JitStarted, 8, 444);
    trace.record(RuntimeEventType::NumKinds, 9, 9); // guarded: no-op

    EXPECT_EQ(trace.counts().gcTriggered, 1u);
    EXPECT_EQ(trace.counts().jitStarted, 2u);
    ASSERT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.at(0).kind, trace::TraceEventKind::GcTriggered);
    EXPECT_EQ(ring.at(0).arg0, 111u);
    EXPECT_EQ(ring.at(0).arg1, 222u);
    EXPECT_EQ(ring.at(1).kind, trace::TraceEventKind::JitStarted);
    EXPECT_EQ(ring.at(1).arg0, 7u);
    EXPECT_EQ(ring.at(2).arg0, 8u);
    // Timestamps come from the clock, monotonically.
    EXPECT_LT(ring.at(0).cycles, ring.at(1).cycles);
    EXPECT_LT(ring.at(1).cycles, ring.at(2).cycles);

    // Detaching stops emission but aggregates keep counting.
    trace.setRecorder(nullptr);
    trace.record(RuntimeEventType::GcTriggered);
    EXPECT_EQ(trace.counts().gcTriggered, 2u);
    EXPECT_EQ(ring.size(), 3u);
}

TEST(EventTraceTest, ResetKeepsRecorderAttached)
{
    trace::TraceBuffer<trace::TraceEvent> ring(8);
    StepClock clock;
    trace::TraceRecorder recorder(&ring, &clock);

    EventTrace trace;
    trace.setRecorder(&recorder);
    trace.record(RuntimeEventType::ExceptionStart);
    trace.reset();
    EXPECT_EQ(trace.counts().exceptionStart, 0u);
    EXPECT_EQ(trace.recorder(), &recorder);
    trace.record(RuntimeEventType::ExceptionStart);
    EXPECT_EQ(ring.totalPushed(), 2u);
}

} // namespace
} // namespace netchar::rt
