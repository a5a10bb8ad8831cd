#include "runtime/clr.hh"

namespace netchar::rt
{

Clr::Clr(const ClrConfig &config, std::uint64_t seed)
    : config_(config),
      heap_(config.heap),
      gc_(config.gc),
      jit_(config.jit, stats::Rng(seed).fork(0x4A49545FULL))
{
}

AllocResult
Clr::allocate(std::uint64_t bytes)
{
    AllocResult result;
    if (gc_.shouldCollect(heap_)) {
        result.gcTriggered = true;
        result.gcWork = gc_.collect(heap_);
        trace_.record(RuntimeEventType::GcTriggered,
                      result.gcWork.instructions,
                      result.gcWork.bytesScanned);
    }
    result.address = heap_.allocate(bytes);
    allocTickAccum_ += bytes;
    while (allocTickAccum_ >= config_.allocTickBytes) {
        allocTickAccum_ -= config_.allocTickBytes;
        trace_.record(RuntimeEventType::GcAllocationTick,
                      config_.allocTickBytes,
                      heap_.allocatedSinceGc());
    }
    return result;
}

JitOutcome
Clr::invokeMethod(unsigned index)
{
    JitOutcome out = jit_.invoke(index);
    if (out.jitted)
        trace_.record(RuntimeEventType::JitStarted, index,
                      out.compileInstructions);
    return out;
}

void
Clr::reset()
{
    heap_.reset();
    jit_.reset();
    trace_.reset();
    allocTickAccum_ = 0;
    llcWarm_ = false;
}

} // namespace netchar::rt
