/**
 * @file
 * Deterministic fault injection for the suite pipeline.
 *
 * A characterization pipeline is only trustworthy if its failure
 * handling is explicit and exercised. This module provides the chaos
 * half of that contract: a seeded FaultPlan decides — as a pure
 * function of (benchmark, machine, attempt, plan seed) — whether a
 * run attempt is hit by a fault and which kind:
 *
 *  - Throw          : the run throws before doing any work (a crashed
 *                     benchmark process);
 *  - CorruptCounter : the run completes but a counter/metric value
 *                     comes back non-finite (a wedged PMU read);
 *  - Stall          : the run never converges and must be killed by
 *                     the cycle-budget watchdog (a hung benchmark);
 *  - TraceExhaust   : trace rings are clamped to a tiny capacity so
 *                     the capture path must degrade gracefully.
 *
 * Because decisions are pure hashes, an identical (spec, seed) pair
 * injects the identical fault set at any --jobs value, on any host —
 * chaos runs are replayable and their ledgers byte-identical.
 *
 * The module is standalone (no dependency on the characterizer); the
 * resilient sweep in core/characterize.cc consumes the decisions.
 */

#ifndef NETCHAR_CORE_FAULTS_HH
#define NETCHAR_CORE_FAULTS_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace netchar
{

/** Kinds of fault a FaultPlan can inject into one run attempt. */
enum class FaultKind
{
    None = 0,
    Throw,          ///< run attempt throws immediately
    CorruptCounter, ///< a counter/metric value turns non-finite
    Stall,          ///< run exceeds its cycle budget (simulated hang)
    TraceExhaust,   ///< trace rings clamped to force drop-oldest
};

/** Short spec-syntax name of a kind ("throw", "corrupt", ...). */
std::string_view faultKindName(FaultKind kind);

/** What decide() resolved for one (benchmark, machine, attempt). */
struct FaultDecision
{
    FaultKind kind = FaultKind::None;
    /**
     * CorruptCounter: the non-finite payload written into the result
     * (NaN, +inf or -inf, hash-chosen).
     */
    double badValue = 0.0;
    /**
     * Extra deterministic entropy for the applier: selects which
     * counter/metric to corrupt.
     */
    std::uint64_t selector = 0;
    /** TraceExhaust: forced ring capacity (8..32 records). */
    std::size_t traceCapacity = 0;

    explicit operator bool() const { return kind != FaultKind::None; }
};

/**
 * What a fault plan's spec holds, for either fault family: overall
 * rate, enabled kinds, seed. Each plan adds its own parse() and
 * decide().
 *
 * Spec syntax: comma-separated key=value pairs —
 *
 *   rate=0.1                  fraction of decisions hit (required)
 *   kinds=a+b                 enabled kinds (default: all of the
 *                             family's, in its table order)
 *   seed=7                    plan seed, a decimal unsigned 64-bit
 *                             integer without sign (default 1)
 */
template <typename Kind>
class FaultSpec
{
  public:
    /** True when the plan can inject anything at all. */
    bool enabled() const { return rate_ > 0.0 && !kinds_.empty(); }

    double rate() const { return rate_; }
    std::uint64_t seed() const { return seed_; }
    const std::vector<Kind> &kinds() const { return kinds_; }

    /** Canonical one-line rendering (for logs and ledgers); parse()
     *  of it gives the same plan. */
    std::string describe() const;

  protected:
    /** Read a spec; throws std::invalid_argument naming the bad
     *  field after `what` ("chaos spec: ..."), suggesting `example`. */
    void read(const std::string &spec, std::string_view what,
              std::string_view example);

    double rate_ = 0.0;
    std::vector<Kind> kinds_;
    std::uint64_t seed_ = 1;
};

/**
 * A seeded fault-injection plan for simulator runs. Its kinds are
 * throw, corrupt, stall and trace, e.g.
 * "rate=0.1,kinds=throw+stall,seed=42"; `nan` is an alias for
 * `corrupt`.
 */
class FaultPlan : public FaultSpec<FaultKind>
{
  public:
    /** Parse a spec string; throws std::invalid_argument with a
     *  descriptive message on any malformed field. */
    static FaultPlan parse(const std::string &spec);

    /**
     * Decide the fault (if any) for one run attempt. Pure function of
     * the arguments and the plan state: independent of scheduling,
     * host, thread or call order.
     *
     * @param benchmark Benchmark name.
     * @param machine Machine-config name.
     * @param attempt 1-based attempt number (retries re-roll).
     */
    FaultDecision decide(std::string_view benchmark,
                         std::string_view machine,
                         unsigned attempt) const;
};

/** Exception thrown by an injected Throw/Stall fault. */
class FaultInjectedError : public std::runtime_error
{
  public:
    FaultInjectedError(FaultKind kind, const std::string &message)
        : std::runtime_error(message), kind_(kind)
    {
    }

    FaultKind kind() const { return kind_; }

  private:
    FaultKind kind_;
};

/**
 * Thrown by the per-run cycle-budget watchdog when a run burns more
 * simulated cycles than RunOptions::runBudgetCycles allows — the
 * deterministic analogue of a wall-clock timeout.
 */
class RunBudgetExceeded : public std::runtime_error
{
  public:
    RunBudgetExceeded(double cycles, std::uint64_t budget);

    double cycles() const { return cycles_; }
    std::uint64_t budget() const { return budget_; }

  private:
    double cycles_ = 0.0;
    std::uint64_t budget_ = 0;
};

/**
 * Seed for retry attempt `attempt` of `benchmark`: attempt 1 returns
 * `base` unchanged; later attempts mix (base, benchmark, attempt) so
 * a seed-dependent failure is not replayed verbatim. Deterministic —
 * the retried run is still byte-reproducible.
 */
std::uint64_t perturbedSeed(std::uint64_t base,
                            std::string_view benchmark,
                            unsigned attempt);

// ---------------------------------------------------------------
// Wire faults: the serving-layer chaos family.
// ---------------------------------------------------------------

/**
 * Kinds of fault a WireFaultPlan can inject into the serve daemon's
 * transport and persistence edges (PR 3's simulator chaos extended
 * up through the wire):
 *
 *  - SplitWrite     : a response is sent in tiny partial writes, so
 *                     one NDJSON frame arrives split across many TCP
 *                     segments;
 *  - MergeFrames    : a response is withheld and coalesced with the
 *                     connection's next flush, so several frames
 *                     arrive merged in one segment;
 *  - StallWrite     : a bounded delay before the response bytes move
 *                     (a stalled read from the peer's perspective);
 *  - ResetMidResponse : only a prefix of the response is sent before
 *                     the connection is closed (torn frame — the
 *                     client must retry the idempotent request);
 *  - TruncateJournal : bytes are chopped off the cache journal's
 *                     tail after an append (a torn write the next
 *                     start's recovery path must skip and report).
 */
enum class WireFaultKind
{
    None = 0,
    SplitWrite,
    MergeFrames,
    StallWrite,
    ResetMidResponse,
    TruncateJournal,
};

/** What WireFaultPlan::decide() resolved for one response. */
struct WireFaultDecision
{
    WireFaultKind kind = WireFaultKind::None;
    /** SplitWrite: bytes per partial write (1..16). */
    std::size_t chunkBytes = 0;
    /** StallWrite: delay before the bytes move (<= 20 ms). */
    std::uint64_t stallMicros = 0;
    /** ResetMidResponse: prefix bytes delivered before the close
     *  (may be 0 — the whole frame is lost). */
    std::size_t resetAfterBytes = 0;
    /** TruncateJournal: tail bytes chopped off the journal (1..48). */
    std::uint64_t truncateBytes = 0;

    explicit operator bool() const { return kind != WireFaultKind::None; }
};

/**
 * A seeded wire-fault plan. Its spec is FaultSpec's grammar with the
 * wire kinds split, merge, stall, reset and journal, e.g.
 * "rate=0.25,kinds=split+reset,seed=9".
 *
 * Decisions are a pure hash of (seed, sequence): for a given request
 * arrival order the daemon injects the identical fault set on any
 * host, so a chaos-wire sweep is replayable.
 */
class WireFaultPlan : public FaultSpec<WireFaultKind>
{
  public:
    /** Parse a spec string; throws std::invalid_argument with a
     *  descriptive message on any malformed field. */
    static WireFaultPlan parse(const std::string &spec);

    /**
     * Decide the fault (if any) for the `sequence`-th response the
     * daemon sends (0-based, monotonically increasing). Pure
     * function of (plan, sequence).
     */
    WireFaultDecision decide(std::uint64_t sequence) const;
};

} // namespace netchar

#endif // NETCHAR_CORE_FAULTS_HH
