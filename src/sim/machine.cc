#include "sim/machine.hh"

#include <algorithm>
#include <stdexcept>

namespace netchar::sim
{

Machine::Machine(const MachineConfig &cfg, unsigned active_cores,
                 std::uint64_t seed, const NocParams &noc)
    // Validate before any member consumes the config: a malformed
    // geometry must fail with a named error, not a Cache-ctor throw.
    : cfg_((cfg.validate(), cfg)),
      llc_(cfg.llc, cfg.llcSlices, cfg.pipe.llcLatency, noc),
      dram_()
{
    const unsigned n =
        std::clamp(active_cores, 1u, cfg_.physicalCores);
    cores_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        cores_.push_back(
            std::make_unique<Core>(cfg_, llc_, dram_, processPages_, i, seed));
}

Core &
Machine::core(unsigned i)
{
    if (i >= cores_.size())
        throw std::out_of_range("Machine::core");
    return *cores_[i];
}

const Core &
Machine::core(unsigned i) const
{
    if (i >= cores_.size())
        throw std::out_of_range("Machine::core");
    return *cores_[i];
}

PerfCounters
Machine::totalCounters() const
{
    PerfCounters total;
    for (const auto &core : cores_)
        total.add(core->counters());
    return total;
}

SlotAccount
Machine::totalSlots() const
{
    SlotAccount total;
    for (const auto &core : cores_)
        total.add(core->slotAccount());
    return total;
}

double
Machine::cycles() const
{
    double total = 0.0;
    for (const auto &core : cores_)
        total += core->cycles();
    return total;
}

std::uint64_t
Machine::instructions() const
{
    std::uint64_t total = 0;
    for (const auto &core : cores_)
        total += core->counters().instructions;
    return total;
}

void
Machine::emitCounterSample()
{
    if (!traceSamples_)
        return;
    trace::CounterRecord record;
    record.counters = totalCounters();
    record.slots = totalSlots();
    record.eventSeq =
        traceRecorder_ ? traceRecorder_->eventsPushed() : 0;
    traceSamples_->push(record);
}

double
Machine::seconds() const
{
    double max_cycles = 0.0;
    for (const auto &core : cores_)
        max_cycles = std::max(max_cycles, core->cycles());
    return max_cycles / (cfg_.maxGhz * 1e9);
}

void
Machine::setJitHintEnabled(bool enabled)
{
    for (auto &core : cores_)
        core->setJitHintEnabled(enabled);
}

void
Machine::reset()
{
    for (auto &core : cores_)
        core->reset();
    processPages_.clear();
    llc_.reset();
    dram_.reset();
}

} // namespace netchar::sim
