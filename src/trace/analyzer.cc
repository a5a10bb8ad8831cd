#include "trace/analyzer.hh"

#include <algorithm>

namespace netchar::trace
{

namespace
{

constexpr std::size_t kKinds =
    static_cast<std::size_t>(TraceEventKind::NumKinds);

rt::RuntimeEventCounts
toCounts(const std::array<std::uint64_t, kKinds> &by_kind)
{
    rt::RuntimeEventCounts counts;
    for (std::size_t k = 0; k < kKinds; ++k)
        counts.*rt::kEventCountFields[k] = by_kind[k];
    return counts;
}

std::array<std::uint64_t, kKinds>
sub(const std::array<std::uint64_t, kKinds> &a,
    const std::array<std::uint64_t, kKinds> &b)
{
    std::array<std::uint64_t, kKinds> d{};
    for (std::size_t k = 0; k < kKinds; ++k)
        d[k] = a[k] - b[k];
    return d;
}

} // namespace

TraceAnalyzer::TraceAnalyzer(const Trace &trace) : trace_(trace)
{
    const auto &events = trace_.events;
    prefix_.resize(events.size() + 1);
    for (std::size_t i = 0; i < events.size(); ++i) {
        prefix_[i + 1] = prefix_[i];
        const auto kind =
            static_cast<std::size_t>(events.at(i).kind);
        if (kind < kKinds)
            ++prefix_[i + 1][kind];
    }
}

std::array<std::uint64_t, kKinds>
TraceAnalyzer::countsUpTo(std::uint64_t seq) const
{
    // Retained event i (0-based) has sequence dropped + i + 1, so
    // "sequence <= seq" selects the first (seq - dropped) of them.
    const std::uint64_t dropped = trace_.events.dropped();
    const std::uint64_t within = seq > dropped ? seq - dropped : 0;
    const std::size_t p = static_cast<std::size_t>(
        std::min<std::uint64_t>(within, trace_.events.size()));
    return prefix_[p];
}

std::vector<IntervalSample>
TraceAnalyzer::reslice(double interval_cycles,
                       std::size_t max_samples) const
{
    std::vector<IntervalSample> out;
    const auto &records = trace_.samples;
    if (records.size() == 0 || interval_cycles <= 0.0)
        return out;

    // Mirror of Characterizer::sampleCycles: from the previous
    // boundary, advance to the first record whose cycle count reaches
    // prev + interval (possibly the previous record itself when the
    // interval is below the chunk granularity — live sampling then
    // takes a zero-width sample too).
    std::size_t prev = 0;
    while (out.size() < max_samples) {
        const double target =
            records.at(prev).counters.cycles + interval_cycles;
        std::size_t next = prev;
        while (next < records.size() &&
               records.at(next).counters.cycles < target)
            ++next;
        if (next == records.size())
            break; // trailing partial window: discard
        IntervalSample sample;
        sample.counters = records.at(next).counters.delta(
            records.at(prev).counters);
        sample.slots =
            records.at(next).slots.delta(records.at(prev).slots);
        sample.events =
            toCounts(sub(countsUpTo(records.at(next).eventSeq),
                         countsUpTo(records.at(prev).eventSeq)));
        out.push_back(sample);
        prev = next;
    }
    return out;
}

std::vector<IntervalSample>
TraceAnalyzer::resliceMillis(double interval_ms,
                             std::size_t max_samples) const
{
    return reslice(interval_ms * trace_.ghz * 1e6, max_samples);
}

TraceSummary
TraceAnalyzer::summary() const
{
    TraceSummary s;
    s.eventCounts = prefix_.back();
    s.droppedEvents = trace_.events.dropped();
    s.droppedSamples = trace_.samples.dropped();
    s.counterSamples = trace_.samples.size();
    s.spanCycles = trace_.endCycles() - trace_.beginCycles();
    return s;
}

} // namespace netchar::trace
