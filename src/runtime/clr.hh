/**
 * @file
 * CLR facade: heap + GC + JIT + event trace behind one interface, the
 * runtime object a managed workload instantiates per process.
 */

#ifndef NETCHAR_RUNTIME_CLR_HH
#define NETCHAR_RUNTIME_CLR_HH

#include <cstdint>
#include <utility>

#include "runtime/events.hh"
#include "runtime/gc.hh"
#include "runtime/heap.hh"
#include "runtime/jit.hh"
#include "stats/rng.hh"

namespace netchar::rt
{

/** Full runtime configuration. */
struct ClrConfig
{
    HeapConfig heap;
    GcConfig gc;
    JitConfig jit;
    /** Bytes between GC/AllocationTick events (ETW default 100 KiB). */
    std::uint64_t allocTickBytes = 100 * 1024;
};

/** Result of one allocation through the runtime. */
struct AllocResult
{
    /** Address of the new object. */
    std::uint64_t address = 0;
    /** A GC ran as part of this allocation. */
    bool gcTriggered = false;
    /** Collector work the application core must execute. */
    GcWork gcWork;
};

/**
 * One managed runtime instance. All event bookkeeping (Table I
 * metrics 19-23) happens here; workloads call allocate() and
 * invokeMethod() and execute whatever work comes back.
 */
class Clr
{
  public:
    /**
     * @param config Runtime parameters.
     * @param seed Substream seed for method-size jitter.
     */
    Clr(const ClrConfig &config, std::uint64_t seed);

    /**
     * Allocate managed memory; may trigger a collection first, per
     * the GC policy. Records AllocationTick events (payload: tick
     * size, bytes allocated since the last GC) and GC/Triggered
     * events (payload: collector instructions, bytes scanned).
     */
    AllocResult allocate(std::uint64_t bytes);

    /**
     * Invoke a method through the JIT; compiles on demand and records
     * Method/JittingStarted events (payload: method index, compiler
     * instructions).
     */
    JitOutcome invokeMethod(unsigned index);

    /** Record an Exception/Start event. */
    void throwException() { trace_.record(RuntimeEventType::ExceptionStart); }

    /** Record a Contention/Start event. */
    void contend() { trace_.record(RuntimeEventType::ContentionStart); }

    Heap &heap() { return heap_; }
    const Heap &heap() const { return heap_; }
    Gc &gc() { return gc_; }
    const Gc &gc() const { return gc_; }
    Jit &jit() { return jit_; }
    const Jit &jit() const { return jit_; }
    EventTrace &trace() { return trace_; }
    const EventTrace &trace() const { return trace_; }

    /**
     * True for the first caller only: the first core to start on this
     * process loads its working set into the shared LLC, and later
     * cores find it already warm.
     */
    bool claimLlcWarmup() { return !std::exchange(llcWarm_, true); }

    /** Restore the runtime to a fresh-process state. */
    void reset();

  private:
    ClrConfig config_;
    Heap heap_;
    Gc gc_;
    Jit jit_;
    EventTrace trace_;
    std::uint64_t allocTickAccum_ = 0;
    bool llcWarm_ = false;
};

} // namespace netchar::rt

#endif // NETCHAR_RUNTIME_CLR_HH
