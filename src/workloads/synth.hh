/**
 * @file
 * SynthWorkload: turns a WorkloadProfile into a deterministic
 * instruction stream executed on a sim::Core.
 *
 * The generator is a small state machine. In User mode it walks the
 * benchmark's method bodies (sequential PCs punctuated by biased
 * branches and zipf-distributed method calls) and issues data accesses
 * from a frontier-hot reuse-distance model over the heap/static data
 * region. Events switch it into burst modes:
 *
 *  - Kernel  : syscall/networking-stack service bursts (kernel PCs);
 *  - Jit     : the CLR compiles a method (branchy compiler code, IR
 *              reads, code-page stores), after which the method lives
 *              at a NEW address -> natural cold starts downstream;
 *  - Gc      : a collection sweeps the live heap (streaming loads and
 *              stores), then the heap spread snaps tight -> natural
 *              locality improvement downstream;
 *  - Except  : exception dispatch/unwind burst;
 *  - Contend : lock-contention spin burst.
 *
 * Everything is seeded; identical (profile, seed, machine) tuples
 * replay identical streams.
 */

#ifndef NETCHAR_WORKLOADS_SYNTH_HH
#define NETCHAR_WORKLOADS_SYNTH_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/clr.hh"
#include "sim/core.hh"
#include "sim/inst.hh"
#include "stats/rng.hh"
#include "workloads/profile.hh"

namespace netchar::wl
{

/** Address-layout maturity factors (from sim::MachineConfig). */
struct SpreadFactors
{
    double code = 1.0;
    double data = 1.0;
};

/**
 * A running instance of one benchmark. One instance per core; server
 * workloads (ASP.NET) share a single Clr across instances to model
 * one multi-threaded process.
 */
class SynthWorkload
{
  public:
    /**
     * @param profile Validated behavioral profile.
     * @param run_seed Seed for this run (vary per repetition).
     * @param shared_clr Optional pre-built runtime shared across
     *        cores; when null and the profile is managed, a private
     *        Clr is created.
     * @param spread Code/data layout spread (Arm software-stack
     *        maturity modeling; 1.0/1.0 for the Intel stack).
     */
    SynthWorkload(const WorkloadProfile &profile, std::uint64_t run_seed,
                  std::shared_ptr<rt::Clr> shared_clr = nullptr,
                  SpreadFactors spread = {});

    /**
     * Execute `count` instructions on `core`. May be called repeatedly
     * (interval sampling, multi-core round-robin interleaving); state
     * carries across calls.
     */
    void run(sim::Core &core, std::uint64_t count);

    /** Profile in use. */
    const WorkloadProfile &profile() const { return profile_; }

    /** Managed runtime, or nullptr for native workloads. */
    rt::Clr *clr() { return clr_.get(); }
    const rt::Clr *clr() const { return clr_.get(); }

    /** Instructions generated so far. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Build the shared Clr for a multi-core run of a managed profile
     * (one process, many server threads).
     */
    static std::shared_ptr<rt::Clr>
    makeClr(const WorkloadProfile &profile, std::uint64_t seed,
            SpreadFactors spread = {});

  private:
    enum class Mode { User, Kernel, Jit, Gc, Exception, Contention };

    void step(sim::Core &core);
    sim::Inst userInst();
    sim::Inst kernelInst();
    sim::Inst jitInst();
    sim::Inst gcInst();
    sim::Inst exceptionInst();
    sim::Inst contentionInst();

    /** Data address from the frontier-hot reuse model. */
    std::uint64_t dataAddress();
    /** Pick an instruction kind from mix fractions. */
    sim::InstKind pickKind(double branch, double load, double store,
                           double mul, double div);
    /** Handle a user-mode branch at the current PC; returns the inst. */
    sim::Inst userBranch(std::uint64_t pc);
    /** Switch to method `index` (JIT-compiling it if managed). */
    void enterMethod(unsigned index, sim::Core &core);
    /** Per-user-instruction runtime bookkeeping (allocation, events). */
    void userTick(sim::Core &core);
    /** Spread-adjusted heap/data region width in bytes. */
    std::uint64_t dataRegionBytes() const;

    WorkloadProfile profile_;
    /**
     * Per-instruction probabilities derived from profile_, computed
     * once by the constructor.
     */
    struct InstRates
    {
        /** Load/store/mul/div shares of non-branch instructions. */
        double load = 0.0;
        double store = 0.0;
        double mul = 0.0;
        double div = 0.0;
        /** Kernel-burst entry; used only when 0 < kernelFrac < 1. */
        double kernelEntry = 0.0;
        /** Exception and lock-contention bursts (managed only). */
        double exception = 0.0;
        double contention = 0.0;
    };
    InstRates rates_;
    SpreadFactors spread_;
    stats::Rng rng_;
    std::shared_ptr<rt::Clr> clr_;

    // Native code layout (unused when managed).
    std::vector<std::uint64_t> nativeBase_;
    std::vector<std::uint64_t> nativeBytes_;

    // Execution state.
    Mode mode_ = Mode::User;
    std::uint64_t burstRemaining_ = 0;
    unsigned currentMethod_ = 0;
    std::uint64_t methodBase_ = 0;
    std::uint64_t methodBytes_ = 0;
    std::uint64_t pcOffset_ = 0;

    std::uint64_t kernelPc_ = 0;
    std::uint64_t jitPc_ = 0;
    std::uint64_t gcPc_ = 0;
    std::uint64_t gcScanOffset_ = 0;
    std::uint64_t jitEmitAddr_ = 0;
    std::uint64_t streamOffset_ = 0;

    /**
     * Per-worker displacement of the hot/warm data windows inside the
     * shared heap: server threads work on their own in-flight
     * requests, so each core's near-term working set is private even
     * though the heap, code and cool data are shared.
     */
    std::uint64_t workerOffset_ = 0;

    double allocAccum_ = 0.0;
    std::uint64_t executed_ = 0;
    sim::Core *activeCore_ = nullptr;
};

} // namespace netchar::wl

#endif // NETCHAR_WORKLOADS_SYNTH_HH
