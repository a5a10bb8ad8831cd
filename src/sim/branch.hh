/**
 * @file
 * Branch direction predictor (gshare) and branch target buffer.
 *
 * PC-indexed predictor state is central to the paper's JIT cold-start
 * findings (§VII-A1): when the runtime re-JITs a method to a new code
 * page, branch addresses change and the predictor/BTB state trained on
 * the old addresses becomes unreachable, forcing retraining. Because
 * both structures here are genuinely PC-indexed, that effect emerges
 * naturally in simulation.
 */

#ifndef NETCHAR_SIM_BRANCH_HH
#define NETCHAR_SIM_BRANCH_HH

#include <cstdint>
#include <vector>

#include "sim/lru_sets.hh"

namespace netchar::sim
{

/**
 * gshare direction predictor: a table of 2-bit saturating counters
 * indexed by PC xor global history.
 */
class BranchPredictor
{
  public:
    /**
     * @param table_bits log2 of the counter-table size.
     * @param history_bits Global-history length xored into the index
     *        (kept short: long histories dilute training on workloads
     *        whose inter-branch correlation is weak).
     */
    explicit BranchPredictor(unsigned table_bits,
                             unsigned history_bits = 4);

    /**
     * Predict and train on one conditional branch.
     *
     * @param pc Branch instruction address.
     * @param taken Actual outcome.
     * @return true when the prediction matched the outcome.
     */
    bool predictAndTrain(std::uint64_t pc, bool taken);

    /** Prediction only, no training or history update (tests). */
    bool predict(std::uint64_t pc) const;

    /** Reset counters and history to the weakly-not-taken state. */
    void reset();

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t mispredicts() const { return mispredicts_; }

  private:
    std::size_t indexFor(std::uint64_t pc) const;

    std::vector<std::uint8_t> table_;
    std::uint64_t mask_;
    std::uint64_t historyMask_;
    unsigned historyShift_;
    std::uint64_t history_ = 0;
    std::uint64_t lookups_ = 0;
    std::uint64_t mispredicts_ = 0;
};

/**
 * Branch target buffer: set-associative tag store over branch PCs.
 * A taken branch whose PC misses the BTB costs a fetch re-steer.
 */
class Btb
{
  public:
    /** @param entries Total entries (rounded to assoc multiples). */
    explicit Btb(unsigned entries, unsigned assoc = 4);

    /** Lookup; inserts on miss. @return true on hit. */
    bool accessAndFill(std::uint64_t pc);

    /** Probe without state change. */
    bool contains(std::uint64_t pc) const;

    /** Pre-install an entry (JIT-hint state transformation path). */
    void install(std::uint64_t pc);

    /** Drop all entries. */
    void invalidateAll();

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t misses() const { return misses_; }

  private:
    LruSets<> entries_;
    std::uint64_t lookups_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace netchar::sim

#endif // NETCHAR_SIM_BRANCH_HH
