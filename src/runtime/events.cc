#include "runtime/events.hh"

#include "trace/recorder.hh"

namespace netchar::rt
{

namespace
{

/** a - b, saturating at 0 (snapshot deltas must never wrap). */
std::uint64_t
satSub(std::uint64_t a, std::uint64_t b)
{
    return a > b ? a - b : 0;
}

} // namespace

void
RuntimeEventCounts::add(const RuntimeEventCounts &other)
{
    for (const auto field : kEventCountFields)
        this->*field += other.*field;
}

RuntimeEventCounts
RuntimeEventCounts::delta(const RuntimeEventCounts &since) const
{
    RuntimeEventCounts d;
    for (const auto field : kEventCountFields)
        d.*field = satSub(this->*field, since.*field);
    return d;
}

std::uint64_t
RuntimeEventCounts::count(RuntimeEventType type) const
{
    const auto k = static_cast<std::size_t>(type);
    return k < std::size(kEventCountFields) ? this->*kEventCountFields[k]
                                            : 0;
}

double
RuntimeEventCounts::pki(RuntimeEventType type,
                        std::uint64_t instructions) const
{
    return instructions > 0
        ? 1000.0 * static_cast<double>(count(type)) /
              static_cast<double>(instructions)
        : 0.0;
}

void
EventTrace::record(RuntimeEventType type, std::uint64_t arg0,
                   std::uint64_t arg1)
{
    const auto k = static_cast<std::size_t>(type);
    if (k >= std::size(kEventCountFields))
        return; // NumKinds misuse guard: no count, no emission
    ++(counts_.*kEventCountFields[k]);
    if (recorder_)
        recorder_->emit(type, arg0, arg1);
}

} // namespace netchar::rt
