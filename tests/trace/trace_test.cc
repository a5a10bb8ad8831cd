/**
 * @file
 * Tests for the timeline tracing subsystem: ring-buffer bounds and
 * spill accounting, capture determinism (repeat runs and --jobs
 * fan-out), re-slice parity with legacy live sampling, and exporter
 * validity under heavy spill.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "core/characterize.hh"
#include "core/correlation.hh"
#include "trace/analyzer.hh"
#include "trace/buffer.hh"
#include "trace/export_trace.hh"
#include "workloads/registry.hh"

using namespace netchar;

namespace
{

/**
 * Minimal JSON validator (recursive descent, structure only): enough
 * to prove an export parses, with no third-party dependency.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : text_(text) {}

    bool
    valid()
    {
        pos_ = 0;
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == text_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                pos_ += 2;
                continue;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // raw control char: invalid JSON
            ++pos_;
        }
        return false;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(
                    text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : 0; }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

wl::WorkloadProfile
managedProfile()
{
    auto p = *wl::findProfile("System.Linq");
    p.instructions = 150'000;
    // Keep re-JITs flowing so JitStarted events land in the window.
    p.tierUpCallThreshold = 32;
    return p;
}

RunOptions
quickOptions()
{
    RunOptions o;
    o.warmupInstructions = 150'000;
    return o;
}

} // namespace

// ---------------------------------------------------------------------
// TraceBuffer

TEST(TraceBufferTest, DropOldestKeepsMostRecentWindow)
{
    trace::TraceBuffer<int> ring(4);
    for (int i = 1; i <= 10; ++i)
        ring.push(i);
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.totalPushed(), 10u);
    EXPECT_EQ(ring.dropped(), 6u);
    // Retained suffix is (dropped, totalPushed] = {7, 8, 9, 10}.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(ring.at(i), static_cast<int>(7 + i));
        EXPECT_EQ(ring.seqOf(i), 7 + i);
    }
    EXPECT_THROW(ring.at(4), std::out_of_range);
}

TEST(TraceBufferTest, MemoryStaysBoundedAtAnyFillLevel)
{
    trace::TraceBuffer<std::uint64_t> ring(1000);
    for (int i = 0; i < 5000; ++i) {
        ring.push(i);
        ASSERT_LE(ring.memoryBytes(), 1000 * sizeof(std::uint64_t));
        ASSERT_LE(ring.size(), 1000u);
    }
    EXPECT_EQ(ring.dropped(), 4000u);
}

TEST(TraceBufferTest, ZeroCapacityCountsWithoutStoring)
{
    trace::TraceBuffer<int> ring(0);
    for (int i = 0; i < 100; ++i)
        ring.push(i);
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.totalPushed(), 100u);
    EXPECT_EQ(ring.dropped(), 100u);
    EXPECT_EQ(ring.memoryBytes(), 0u);
}

TEST(TraceBufferTest, ClearResetsEverything)
{
    trace::TraceBuffer<int> ring(2);
    ring.push(1);
    ring.push(2);
    ring.push(3);
    ring.clear();
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.totalPushed(), 0u);
    ring.push(9);
    EXPECT_EQ(ring.at(0), 9);
    EXPECT_EQ(ring.seqOf(0), 1u);
}

// ---------------------------------------------------------------------
// Capture

TEST(CaptureTest, ResultMatchesPlainRunSingleCore)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto plain = ch.run(managedProfile(), quickOptions());
    const auto cap = ch.capture(managedProfile(), quickOptions());
    // Single-core instruction streams are chunking-invariant: the
    // traced run measures the identical window.
    EXPECT_EQ(cap.result.counters.instructions,
              plain.counters.instructions);
    EXPECT_DOUBLE_EQ(cap.result.counters.cycles,
                     plain.counters.cycles);
    EXPECT_EQ(cap.result.counters.llcMisses,
              plain.counters.llcMisses);
    EXPECT_EQ(cap.result.events.jitStarted, plain.events.jitStarted);
    EXPECT_EQ(cap.result.events.gcAllocationTick,
              plain.events.gcAllocationTick);
}

TEST(CaptureTest, EventStreamMatchesAggregateCounts)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto cap = ch.capture(managedProfile(), quickOptions());
    ASSERT_EQ(cap.trace.events.dropped(), 0u);
    const trace::TraceAnalyzer analyzer(cap.trace);
    const auto summary = analyzer.summary();
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(trace::TraceEventKind::NumKinds);
         ++k) {
        const auto kind = static_cast<trace::TraceEventKind>(k);
        EXPECT_EQ(summary.eventCounts[k], cap.result.events.count(kind))
            << trace::traceEventKindName(kind);
    }
    // The window produced actual signal worth tracing.
    EXPECT_GT(cap.result.events.jitStarted +
                  cap.result.events.gcAllocationTick,
              0u);
}

TEST(CaptureTest, TraceIsDeterministicAcrossRepeatedRuns)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto a = ch.capture(managedProfile(), quickOptions());
    const auto b = ch.capture(managedProfile(), quickOptions());
    // Byte-identical exports, the determinism invariant.
    EXPECT_EQ(trace::chromeTraceJson(a.trace),
              trace::chromeTraceJson(b.trace));
    EXPECT_EQ(trace::traceCsv(a.trace), trace::traceCsv(b.trace));
}

TEST(CaptureTest, TraceIsIndependentOfJobs)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const std::vector<wl::WorkloadProfile> profiles{
        managedProfile(), *wl::findProfile("SeekUnroll"),
        *wl::findProfile("System.Runtime"), managedProfile()};

    Parallelism serial;
    serial.jobs = 1;
    Parallelism wide;
    wide.jobs = 4;
    const auto a =
        ch.captureAll(profiles, quickOptions(), {}, serial);
    const auto b = ch.captureAll(profiles, quickOptions(), {}, wide);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(trace::chromeTraceJson(a[i].trace),
                  trace::chromeTraceJson(b[i].trace))
            << profiles[i].name;
        EXPECT_EQ(trace::traceCsv(a[i].trace),
                  trace::traceCsv(b[i].trace))
            << profiles[i].name;
    }
}

// ---------------------------------------------------------------------
// Re-slice parity with legacy live sampling

TEST(ResliceParityTest, MatchesSampleCyclesAtLegacyInterval)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profile = managedProfile();
    const auto options = quickOptions();
    const double interval = 50'000.0;
    const std::size_t samples = 8;

    const auto legacy =
        ch.sampleCycles(profile, options, interval, samples);
    ASSERT_EQ(legacy.size(), samples);

    TraceOptions topts;
    // Twice the nominal span comfortably covers per-window chunk
    // overshoot, so every legacy boundary exists in the trace.
    topts.measuredCycles =
        interval * static_cast<double>(samples) * 2.0;
    const auto cap = ch.capture(profile, options, topts);
    ASSERT_EQ(cap.trace.events.dropped(), 0u);
    ASSERT_EQ(cap.trace.samples.dropped(), 0u);

    const auto sliced = trace::TraceAnalyzer(cap.trace)
                            .reslice(interval, samples);
    ASSERT_EQ(sliced.size(), samples);
    for (std::size_t i = 0; i < samples; ++i) {
        const auto &l = legacy[i];
        const auto &s = sliced[i];
        EXPECT_NEAR(s.counters.cycles, l.counters.cycles, 1e-9)
            << "sample " << i;
        EXPECT_EQ(s.counters.instructions, l.counters.instructions)
            << "sample " << i;
        EXPECT_EQ(s.counters.branchMisses, l.counters.branchMisses);
        EXPECT_EQ(s.counters.l1dMisses, l.counters.l1dMisses);
        EXPECT_EQ(s.counters.llcMisses, l.counters.llcMisses);
        EXPECT_EQ(s.counters.pageFaults, l.counters.pageFaults);
        EXPECT_EQ(s.events.gcTriggered, l.events.gcTriggered);
        EXPECT_EQ(s.events.gcAllocationTick,
                  l.events.gcAllocationTick);
        EXPECT_EQ(s.events.jitStarted, l.events.jitStarted);
        for (std::size_t n = 0; n < s.slots.slots.size(); ++n)
            EXPECT_NEAR(s.slots.slots[n], l.slots.slots[n], 1e-9)
                << "sample " << i << " slot " << n;
    }
}

TEST(ResliceParityTest, CorrelationRowsMatchLegacyPath)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profile = managedProfile();
    const auto options = quickOptions();
    const double interval = 40'000.0;
    const std::size_t samples = 10;

    const auto legacy = correlateEvents(
        ch.sampleCycles(profile, options, interval, samples),
        rt::RuntimeEventType::JitStarted);

    TraceOptions topts;
    topts.measuredCycles =
        interval * static_cast<double>(samples) * 2.0;
    const auto cap = ch.capture(profile, options, topts);
    const auto traced =
        correlateTrace(cap.trace, rt::RuntimeEventType::JitStarted,
                       interval, samples);

    ASSERT_EQ(traced.size(), legacy.size());
    for (std::size_t i = 0; i < traced.size(); ++i) {
        EXPECT_EQ(traced[i].name, legacy[i].name);
        EXPECT_NEAR(traced[i].r, legacy[i].r, 1e-9);
        EXPECT_NEAR(traced[i].rho, legacy[i].rho, 1e-9);
    }
}

TEST(ResliceTest, WiderIntervalsNestExactly)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    TraceOptions topts;
    topts.measuredCycles = 600'000.0;
    const auto cap =
        ch.capture(managedProfile(), quickOptions(), topts);
    const trace::TraceAnalyzer analyzer(cap.trace);
    const auto fine = analyzer.reslice(30'000.0);
    const auto coarse = analyzer.reslice(120'000.0);
    EXPECT_GT(fine.size(), coarse.size());
    ASSERT_GT(coarse.size(), 0u);
    // Same trace, so total instructions agree up to window cuts.
    std::uint64_t fine_insts = 0, coarse_insts = 0;
    for (const auto &s : fine)
        fine_insts += s.counters.instructions;
    for (const auto &s : coarse)
        coarse_insts += s.counters.instructions;
    EXPECT_GT(fine_insts, 0u);
    EXPECT_GT(coarse_insts, 0u);
}

// ---------------------------------------------------------------------
// Bounded capture + exports under spill

TEST(SpillTest, SmallRingDropsOldestAndReportsLoss)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    TraceOptions topts;
    topts.bufferEvents = 8; // force spill
    auto options = quickOptions();
    // Allocation-heavy window: plenty of AllocationTick events.
    options.measuredInstructions = 400'000;
    options.allocScale = 8.0;
    const auto cap =
        ch.capture(managedProfile(), options, topts);
    const auto &events = cap.trace.events;
    EXPECT_LE(events.size(), 8u);
    EXPECT_GT(events.dropped(), 0u);
    EXPECT_EQ(events.totalPushed(),
              events.dropped() + events.size());
    EXPECT_LE(events.memoryBytes(),
              8 * sizeof(trace::TraceEvent));
    // The retained suffix is the most recent window: timestamps of
    // retained events are monotone and end at the stream tail.
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_GE(events.at(i).cycles, events.at(i - 1).cycles);
    // Loss is visible in the exports' metadata.
    const auto json = trace::chromeTraceJson(cap.trace);
    EXPECT_NE(json.find("\"droppedEvents\":" +
                        std::to_string(events.dropped())),
              std::string::npos);
}

TEST(SpillTest, MillionEventExportStaysValidJson)
{
    // A ~1M-event stream against a small ring: the export must stay
    // bounded (only the retained suffix serializes) and parse as
    // JSON. Events are synthesized directly so the test runs fast.
    trace::Trace trace;
    trace.benchmark = "synthetic \"million\"";
    trace.machine = "unit, test";
    trace.ghz = 3.0;
    trace.chunkInstructions = 1000;
    trace.events = trace::TraceBuffer<trace::TraceEvent>(4096);
    trace.samples = trace::TraceBuffer<trace::CounterRecord>(1024);

    constexpr std::uint64_t kEvents = 1'000'000;
    for (std::uint64_t i = 0; i < kEvents; ++i) {
        trace::TraceEvent e;
        e.cycles = static_cast<double>(i) * 3.5;
        e.instructions = i * 2;
        e.kind = static_cast<trace::TraceEventKind>(i % 5);
        e.arg0 = i;
        e.arg1 = ~i;
        trace.events.push(e);
        if (i % 1000 == 0) {
            trace::CounterRecord r;
            r.counters.cycles = static_cast<double>(i) * 3.5;
            r.counters.instructions = i * 2;
            r.eventSeq = i + 1;
            trace.samples.push(r);
        }
    }
    EXPECT_EQ(trace.events.totalPushed(), kEvents);
    EXPECT_EQ(trace.events.dropped(), kEvents - 4096);

    const auto json = trace::chromeTraceJson(trace);
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid());
    // Bounded output: the document holds the ring, not the stream.
    EXPECT_LT(json.size(), 4096u * 400u);

    const auto csv = trace::traceCsv(trace);
    EXPECT_EQ(csv.find("\n\n"), std::string::npos);
}

TEST(ExportTest, CapturedChromeJsonIsValid)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto cap = ch.capture(managedProfile(), quickOptions());
    const auto json = trace::chromeTraceJson(cap.trace);
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid());
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("Method/JittingStarted"),
              std::string::npos);
}

TEST(SummaryTest, ReportsSpanAndPerKindCounts)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto cap = ch.capture(managedProfile(), quickOptions());
    const auto summary =
        trace::TraceAnalyzer(cap.trace).summary();
    EXPECT_GT(summary.counterSamples, 0u);
    EXPECT_GT(summary.spanCycles, 0.0);
    std::uint64_t total = 0;
    for (const auto c : summary.eventCounts)
        total += c;
    EXPECT_EQ(total, cap.trace.events.size());
}
