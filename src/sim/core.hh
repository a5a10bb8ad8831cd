/**
 * @file
 * Statistical core model: consumes an instruction stream, drives the
 * cache/TLB/predictor/prefetcher structures, and accounts pipeline
 * slots to Top-Down nodes as each stall is simulated.
 *
 * The accounting identity is exact by construction:
 *
 *     cycles = instructions / width  (retiring)
 *            + port stalls           (BE core bound)
 *            + per-event stall terms (FE / BE / bad speculation)
 *
 * so the Top-Down fractions always sum to 1, mirroring toplev output.
 */

#ifndef NETCHAR_SIM_CORE_HH
#define NETCHAR_SIM_CORE_HH

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_set>

#include "sim/backend.hh"
#include "sim/branch.hh"
#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/counters.hh"
#include "sim/frontend.hh"
#include "sim/inst.hh"
#include "sim/memory.hh"
#include "sim/noc.hh"
#include "sim/prefetch.hh"
#include "sim/tlb.hh"
#include "stats/rng.hh"

namespace netchar::sim
{

/**
 * One core: private L1I/L1D/L2, TLBs, branch structures and
 * prefetchers, sharing an LlcNoc and DramModel with its siblings.
 */
class Core
{
  public:
    /**
     * @param cfg Machine description (geometries, penalties).
     * @param llc Shared sliced LLC (owned by the Machine).
     * @param dram Shared DRAM model (owned by the Machine).
     * @param core_id Used to derive this core's RNG substream.
     * @param seed Machine master seed.
     */
    /**
     * @param process_pages Shared touched-page set (the process page
     *        table): a page faults once per process, not per core.
     */
    Core(const MachineConfig &cfg, LlcNoc &llc, DramModel &dram,
         std::unordered_set<std::uint64_t> &process_pages,
         unsigned core_id, std::uint64_t seed);

    /** Execute one instruction, updating counters and slot accounts. */
    void execute(const Inst &inst);

    /**
     * Set the workload's intrinsic ILP (independent ops per cycle it
     * offers the issue stage). Affects issue bandwidth and the
     * memory-level-parallelism divisor for miss latencies.
     */
    void setIlp(double ilp);

    /**
     * Set the workload's memory-level parallelism: overlapping demand
     * misses divide exposed miss latency.
     */
    void setMlp(double mlp);

    /**
     * Enable the paper's proposed JIT ISA hook (§VII-A1): jitted pages
     * announced via onJitPage() are prefetched into L2 / pre-installed
     * into the I-TLB, and relocated branches transplant BTB state.
     */
    void setJitHintEnabled(bool enabled) { jitHintEnabled_ = enabled; }

    /**
     * Runtime callback: a method was jitted into [page_addr,
     * page_addr + bytes). No-op unless the JIT hint is enabled.
     */
    void onJitPage(std::uint64_t page_addr, std::uint64_t bytes);

    /**
     * Runtime callback: a branch moved from old_pc to new_pc during
     * re-JIT; transplants BTB state when the JIT hint is enabled.
     */
    void onJitBranchMoved(std::uint64_t old_pc, std::uint64_t new_pc);

    /**
     * Mark [base, base + bytes) as already resident: the process
     * image, statically initialized arrays, and the initial heap are
     * faulted in during program load/init, which the measurement
     * window never observes. Without this, scaled-down footprints
     * would fault at wildly unrealistic per-instruction rates.
     */
    void prefaultRegion(std::uint64_t base, std::uint64_t bytes);

    /**
     * Pre-load each range, in order, into the shared LLC: the code
     * and steady-state working set of a long-running process is LLC
     * resident before any measurement window starts. Uses prefetch
     * fills, so eviction/usefulness accounting stays consistent. One
     * call with every range costs less than one call per range.
     */
    void preloadLlc(std::span<const LlcRange> ranges);

    /** Raw counters since construction/reset. */
    const PerfCounters &counters() const { return counters_; }

    /** Core cycles elapsed. */
    double cycles() const { return counters_.cycles; }

    /** Top-Down slot account derived from the stall breakdown. */
    SlotAccount slotAccount() const;

    /** Clear all microarchitectural state and counters. */
    void reset();

  private:
    void fetch(std::uint64_t pc, bool kernel);
    void doLoad(std::uint64_t addr);
    void doStore(std::uint64_t addr);
    /** Handle L1D miss path; returns exposed latency in cycles. */
    double missPath(std::uint64_t addr, bool is_write, SlotNode &node);
    void issuePrefetches(std::uint64_t addr);
    void touchPage(std::uint64_t addr);
    /** Charge `cycles` to the clock and to one Top-Down node. */
    void stall(SlotNode node, double cycles);
    /** Translation latency of a first-level TLB miss. */
    double walkCycles(const TlbOutcome &out) const;

    const MachineConfig &cfg_;
    LlcNoc &llc_;
    DramModel &dram_;
    /** Shared process page table (owned by the Machine). */
    std::unordered_set<std::uint64_t> &touchedPages_;
    stats::Rng rng_;

    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    TlbHierarchy itlb_;
    TlbHierarchy dtlb_;
    BranchPredictor predictor_;
    Btb btb_;
    Dsb dsb_;
    LoopBuffer loopBuffer_;
    StreamPrefetcher dataPrefetcher_;
    StreamPrefetcher instPrefetcher_;
    Divider divider_;
    IssueModel issue_;

    PerfCounters counters_;
    std::array<double,
               static_cast<std::size_t>(SlotNode::NumNodes)>
        stallCycles_{};

    double ilp_ = 2.0;
    double mlp_ = 2.0;
    bool jitHintEnabled_ = false;
    std::uint64_t lastFetchLine_ = ~0ULL;
};

} // namespace netchar::sim

#endif // NETCHAR_SIM_CORE_HH
