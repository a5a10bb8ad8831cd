#include "sim/counters.hh"

namespace netchar::sim
{

namespace
{

/** Every count field of PerfCounters (all but the double, cycles). */
constexpr std::uint64_t PerfCounters::*kCounterFields[] = {
    &PerfCounters::instructions,     &PerfCounters::kernelInstructions,
    &PerfCounters::branches,         &PerfCounters::loads,
    &PerfCounters::stores,           &PerfCounters::branchMisses,
    &PerfCounters::btbMisses,        &PerfCounters::l1dMisses,
    &PerfCounters::l1iMisses,        &PerfCounters::l2Misses,
    &PerfCounters::llcMisses,        &PerfCounters::itlbMisses,
    &PerfCounters::dtlbLoadMisses,   &PerfCounters::dtlbStoreMisses,
    &PerfCounters::memReadBytes,     &PerfCounters::memWriteBytes,
    &PerfCounters::dramAccesses,     &PerfCounters::dramRowMisses,
    &PerfCounters::pageFaults,       &PerfCounters::prefetchesIssued,
    &PerfCounters::prefetchesUseful, &PerfCounters::prefetchesUseless,
};

// A field added to PerfCounters but not to the table fails here.
static_assert(sizeof(PerfCounters) ==
              sizeof(std::uint64_t) * std::size(kCounterFields) +
                  sizeof(double));

/** Call fn with a pointer to each field of PerfCounters. */
template <typename Fn>
void
forEachCounterField(Fn &&fn)
{
    for (const auto field : kCounterFields)
        fn(field);
    fn(&PerfCounters::cycles);
}

} // namespace

double
SlotAccount::total() const
{
    double sum = 0.0;
    for (double s : slots)
        sum += s;
    return sum;
}

double
SlotAccount::categoryTotal(SlotCategory cat) const
{
    double sum = 0.0;
    for (std::size_t i = 0; i < slots.size(); ++i)
        if (slotCategory(static_cast<SlotNode>(i)) == cat)
            sum += slots[i];
    return sum;
}

double
SlotAccount::fraction(SlotNode n) const
{
    const double t = total();
    return t > 0.0 ? (*this)[n] / t : 0.0;
}

double
SlotAccount::categoryFraction(SlotCategory cat) const
{
    const double t = total();
    return t > 0.0 ? categoryTotal(cat) / t : 0.0;
}

double
SlotAccount::share(SlotNode n) const
{
    const double c = categoryFraction(slotCategory(n));
    return c > 0.0 ? fraction(n) / c : 0.0;
}

void
SlotAccount::add(const SlotAccount &other)
{
    for (std::size_t i = 0; i < slots.size(); ++i)
        slots[i] += other.slots[i];
}

SlotAccount
SlotAccount::delta(const SlotAccount &since) const
{
    SlotAccount d;
    for (std::size_t i = 0; i < slots.size(); ++i)
        d.slots[i] = slots[i] - since.slots[i];
    return d;
}

void
PerfCounters::add(const PerfCounters &other)
{
    forEachCounterField([&](auto field) { this->*field += other.*field; });
}

PerfCounters
PerfCounters::delta(const PerfCounters &since) const
{
    PerfCounters d;
    forEachCounterField(
        [&](auto field) { d.*field = this->*field - since.*field; });
    return d;
}

double
PerfCounters::mpki(std::uint64_t events) const
{
    return instructions > 0
        ? 1000.0 * static_cast<double>(events) /
              static_cast<double>(instructions)
        : 0.0;
}

double
PerfCounters::cpi() const
{
    return instructions > 0
        ? cycles / static_cast<double>(instructions)
        : 0.0;
}

double
PerfCounters::ipc() const
{
    return cycles > 0.0
        ? static_cast<double>(instructions) / cycles
        : 0.0;
}

} // namespace netchar::sim
