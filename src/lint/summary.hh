/**
 * @file
 * Interprocedural function summaries for netchar-lint.
 *
 * The taint and concurrency passes used to reason about one function
 * at a time and stitch results together with ad-hoc worklists. This
 * module computes, once per function, a closed *summary* of its
 * externally visible behavior:
 *
 *  - taint transfer: whether a nondeterminism source inside the body
 *    reaches the return value (`returnTaint`), which parameters flow
 *    to the return value (`paramToReturn`), and which parameters
 *    reach a serialization sink anywhere in the body — directly or
 *    through further calls (`paramSinks`);
 *  - lock effects: the net set of lock resources a call to the
 *    function acquires or releases (`mustAcquire`/`mustRelease` on
 *    every path, `mayAcquire`/`mayRelease` on some path), with RAII
 *    guards excluded because their destructors make them net-zero.
 *
 * Summaries are computed bottom-up over the Tarjan strongly-
 * connected components of the call graph: a function's summary only
 * depends on summaries of its callees, so processing SCCs in
 * reverse topological order needs a fixpoint only *inside* a cycle.
 * Within an SCC the taint slots are fill-once (monotone growth ⇒
 * guaranteed termination) and the lock effects iterate to a fixed
 * point under a deterministic iteration cap.
 *
 * The module also owns the one lock model of the linter: the lock
 * event extractor (`extractLocks`) and the (must, may) lockset
 * solver (`solveLocks`). Lock effects are the exit state of that
 * solver. `computeSummaries` extracts every function's CFG, lock
 * events and guard variables once, under one `collectDeclTypes`
 * table, and can hand that `LockModel` to the concurrency pass,
 * which rebinds each function's call events to the final summaries,
 * runs the same solver and reports over the converged states. The
 * per-file flow sanitizers are likewise collected once and kept in
 * the `SummarySet` for both taint interpreters and the taint pass's
 * any-hop suppression check.
 *
 * Consumers: taint.cc composes `paramSinks`/`returnTaint` at call
 * sites so a source→sink chain spanning any number of helper
 * functions is reported without inlining, and concurrency.cc binds
 * each call event to the callee's `LockEffects` in its lockset
 * dataflow so a mutex locked in `acquire()` and released in
 * `release()` is tracked through the callers that pair them.
 *
 * Determinism contract (same as every lint layer): files arrive in
 * sorted order, SCC member order and every container iteration is
 * fixed, so identical inputs produce identical summaries — and
 * identical reports — on every run.
 */

#ifndef NETCHAR_LINT_SUMMARY_HH
#define NETCHAR_LINT_SUMMARY_HH

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/callgraph.hh"
#include "lint/cfg.hh"
#include "lint/parser.hh"
#include "lint/rules.hh"

namespace netchar::lint
{

// ---------------------------------------------------------------
// Shared taint vocabulary (one source model for every consumer)
// ---------------------------------------------------------------

/** One nondeterminism source occurrence inside a token range. */
struct TaintSourceHit
{
    std::size_t tok = 0;
    std::string_view rule;
    std::string what; ///< human-readable source description
};

/** All nondeterminism sources inside [begin, end). */
std::vector<TaintSourceHit>
scanTaintSources(const std::vector<Token> &toks, std::size_t begin,
                 std::size_t end);

/** True when `name` is a serialization-surface sink function. */
bool isTaintSinkName(std::string_view name);

/** True when `name` is a run-ledger field sanctioned to carry host
 *  wall time (assignments into it stop the flow). */
bool isLedgerWhitelistedField(std::string_view name);

/** One sanitizer pragma's coverage span for one flow rule. */
struct FlowSanitizer
{
    int line = 0;
    int endLine = 0;
    std::string rule;
};

/** The flow sanitizers of one file: allow-flow() pragmas plus
 *  allow(no-wallclock) pragmas, which also sanitize flow-wallclock. */
std::vector<FlowSanitizer> collectFlowSanitizers(const LexedFile &lexed);

/** True when a sanitizer for `rule` covers `line` (a pragma covers
 *  its own span plus the line directly below). */
bool flowSanitizedAt(const std::vector<FlowSanitizer> &sanitizers,
                     int line, std::string_view rule);

// ---------------------------------------------------------------
// Shared lock model (one extractor and one solver for every
// consumer: the lock-effect summaries and the lockset pass)
// ---------------------------------------------------------------

struct LockEffects;
class SummarySet;

/** name → last type-word of its `Type name` declaration, over all
 *  files. Collisions keep the last writer in sorted file order. */
using DeclTypes = std::map<std::string, std::string, std::less<>>;

/** Guard variable → the resources its declaration locked. */
using GuardVars =
    std::map<std::string, std::vector<std::string>, std::less<>>;

/** Record `Type name` declaration pairs: identifier (last of a `::`
 *  chain), optional `<...>`, identifier, then one of `; = { ( ,`.
 *  Heuristic but deterministic. */
DeclTypes collectDeclTypes(const std::vector<FileModel> &files);

/** True when `recv` names an RAII guard: a guard variable of the
 *  function, or a name declared with a guard type anywhere. */
bool isGuardReceiver(const std::string &recv,
                     const GuardVars &guardVars,
                     const DeclTypes &types);

/** One lock-relevant event of a function body. Resources are
 *  receiver spellings (`mu`, `state.mu`). */
struct LockEvent
{
    enum class Kind
    {
        GuardAcquire, ///< RAII guard declaration
        GuardRelease, ///< guard receiver `.unlock()`
        GuardRelock,  ///< guard receiver `.lock()`
        RawLock,
        RawUnlock,
        Call, ///< a call site; applies the callee's net effects
    };
    Kind kind = Kind::RawLock;
    std::vector<std::string> resources;
    std::size_t token = 0; ///< ordering within the block
    int line = 0;
    int column = 0;
    /** Call only: the call site, and the callee's net effects as
     *  last bound by bindCalleeEffects (null: no net effect). */
    const CallSite *call = nullptr;
    const LockEffects *effects = nullptr;
};

/** The lock facts of one function, extracted once. */
struct FunctionLocks
{
    Cfg cfg;
    /** Per block, in token order; one Call event per call site. */
    std::vector<std::vector<LockEvent>> events;
    GuardVars guardVars;
};

/** Build the function's CFG and extract its lock events in one
 *  token walk per statement. Empty for a function without a body. */
FunctionLocks extractLocks(const FileModel &file,
                           const FunctionModel &fn,
                           const DeclTypes &types);

/** Bind every Call event of `locks`, a function of file `file`, to
 *  the callee's first resolved definition with a net lock effect
 *  under `sums`. */
void bindCalleeEffects(FunctionLocks &locks, std::size_t file,
                       const CallGraph &graph,
                       const SummarySet &sums);

/** The lock facts of every function of a file set and the
 *  declaration types they were extracted under. */
struct LockModel
{
    DeclTypes types;
    /** Indexed like FunctionRef: [file][function]. */
    std::vector<std::vector<FunctionLocks>> byFile;
};

/**
 * The dataflow element. `must` (∩ at joins) and `may` (∪) are the
 * held locks; `rawMay` (∪) is the raw-locked subset that feeds the
 * leak check; `relMust` (∩) and `relMay` (∪) are the entry-held
 * locks released on every / some path. The held sets evolve
 * independently of the other three.
 */
struct LockState
{
    bool reached = false;
    std::set<std::string> must;
    std::set<std::string> may;
    std::set<std::string> rawMay;
    std::set<std::string> relMust;
    std::set<std::string> relMay;

    bool operator==(const LockState &) const = default;

    /** Join a predecessor's out-state; true when this changed. */
    bool meet(const LockState &pred);
    /** The transfer function of one event. */
    void apply(const LockEvent &ev);
};

/** Forward fixpoint over the CFG; returns each block's in-state. */
std::vector<LockState> solveLocks(const FunctionLocks &locks);

// ---------------------------------------------------------------
// Per-function summaries
// ---------------------------------------------------------------

/** A concrete taint: which flow rule, and the hop path so far. */
struct ConcreteTaint
{
    std::string rule;
    std::vector<FlowHop> path;
};

/** One "parameter reaches a sink" fact: if the `param`-th parameter
 *  is tainted, the taint reaches `sinkCallee` at the recorded site.
 *  `hops` are the steps *inside* this function (and its callees),
 *  ending with the sink hop; the caller prepends its own path and
 *  the argument→parameter bridging hop. */
struct ParamSinkFlow
{
    std::size_t param = 0;
    std::string sinkCallee;
    std::size_t sinkArg = 0; ///< 0-based argument index at the sink
    std::string sinkFile;
    int sinkLine = 0;
    int sinkColumn = 0;
    std::vector<FlowHop> hops;
};

/** Taint transfer behavior of one function. */
struct TaintSummary
{
    /** A source inside the body reaches the return value; the path
     *  ends with the "returned from" hop. */
    std::optional<ConcreteTaint> returnTaint;
    /** param index → hops from the parameter to the return value
     *  (ending with the "returned from" hop). */
    std::map<std::size_t, std::vector<FlowHop>> paramToReturn;
    /** Parameters that reach a serialization sink. */
    std::vector<ParamSinkFlow> paramSinks;
};

/** Net lock effects of calling one function, RAII guards excluded.
 *  Resources are receiver spellings, the same namespace the
 *  concurrency pass uses. */
struct LockEffects
{
    /** Held at exit on every / some path (net acquisitions). */
    std::set<std::string> mustAcquire;
    std::set<std::string> mayAcquire;
    /** Entry-held resources released on every / some path. */
    std::set<std::string> mustRelease;
    std::set<std::string> mayRelease;
    /** Resources this function itself raw-unlocks anywhere in its
     *  body (syntactic, for wrapper pairing). */
    std::set<std::string> localUnlocks;
    /** resource → hops explaining where a net acquisition
     *  ultimately happens (innermost raw lock site first, then the
     *  call sites it bubbled through). */
    std::map<std::string, std::vector<FlowHop>> acquireChain;

    bool hasNetEffect() const
    {
        return !mustAcquire.empty() || !mayAcquire.empty() ||
               !mustRelease.empty() || !mayRelease.empty();
    }
};

/** The closed summary of one function. */
struct FunctionSummary
{
    TaintSummary taint;
    LockEffects locks;
};

/** Aggregate statistics, surfaced in the schema-v4 JSON report. */
struct SummaryStats
{
    std::size_t functions = 0;
    std::size_t sccs = 0;
    std::size_t largestScc = 0;
    /** Total per-SCC passes beyond the first (cycle fixpoints). */
    std::size_t fixpointPasses = 0;
    std::size_t returnTaints = 0;
    std::size_t paramReturnFlows = 0;
    std::size_t paramSinkFlows = 0;
    /** Functions with a non-empty net lock effect. */
    std::size_t lockEffects = 0;
};

/** Summaries for every function of a parsed file set. */
class SummarySet
{
  public:
    const FunctionSummary &of(FunctionRef ref) const
    {
        return byFile_[ref.file][ref.fn];
    }
    const SummaryStats &stats() const { return stats_; }
    /** The flow sanitizers of file `file` (collectFlowSanitizers). */
    const std::vector<FlowSanitizer> &
    sanitizersOf(std::size_t file) const
    {
        return sanitizers_[file];
    }

  private:
    friend SummarySet computeSummaries(const std::vector<FileModel> &,
                                       const CallGraph &, LockModel *);
    std::vector<std::vector<FunctionSummary>> byFile_;
    std::vector<std::vector<FlowSanitizer>> sanitizers_;
    SummaryStats stats_;
};

/** Compute summaries bottom-up over Tarjan SCCs of the call graph.
 *  `files` must already be in sorted path order; `graph` must have
 *  been built over the same `files`. When `keepLocks` is non-null,
 *  the lock model the summaries were computed from is moved into it
 *  (for analyzeConcurrency); otherwise it is freed. Its Call events
 *  stay bound to whatever the last fixpoint pass saw, so a consumer
 *  rebinds them with bindCalleeEffects against the returned set. */
SummarySet computeSummaries(const std::vector<FileModel> &files,
                            const CallGraph &graph,
                            LockModel *keepLocks);

// ---------------------------------------------------------------
// Concrete-flow enumeration (the taint pass's reporting engine)
// ---------------------------------------------------------------

/** One concrete source→sink flow discovered during reporting. */
struct SinkEvent
{
    std::string rule;
    std::vector<FlowHop> path; ///< source hop first, sink hop last
    std::string sinkFile;
    int sinkLine = 0;
    int sinkColumn = 0;
    std::string sinkCallee;
};

/**
 * Enumerate every concrete source→sink flow: per function, track
 * concrete taints through locals, and at each call compose the
 * callee's summary (`returnTaint`, `paramToReturn`, `paramSinks`)
 * instead of inlining. The callback decides suppression and
 * deduplication; events arrive in deterministic (file, function,
 * statement) order.
 */
void forEachConcreteFlow(const std::vector<FileModel> &files,
                         const CallGraph &graph,
                         const SummarySet &sums,
                         const std::function<void(SinkEvent)> &emit);

} // namespace netchar::lint

#endif // NETCHAR_LINT_SUMMARY_HH
