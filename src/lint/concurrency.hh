/**
 * @file
 * Lockset dataflow and escape analysis: build-time race detection.
 *
 * TSan only vets the interleavings the tests happen to execute;
 * this pass makes the absence of data races a property of the
 * build. It runs a forward dataflow over the per-function CFGs
 * (cfg.hh) — the shared lock model's extractor and solver in
 * summary.hh, the same ones the lock-effect summaries use —
 * computing at every program point the set of held lock resources
 * as a (must, may) pair:
 *
 *   must — locks held on EVERY path reaching the point (set
 *          intersection at joins): the safety the code can rely on;
 *   may  — locks held on SOME path (set union at joins): what a
 *          callee may leave held for its callers (summary.hh).
 *
 * The lattice is the powerset of the function's lock resources,
 * ordered by inclusion; transfer functions add and remove single
 * elements, so the fixpoint terminates in O(blocks × resources).
 * Resources are named by their receiver spelling (`mu`,
 * `state.mu`); RAII guards (`lock_guard`, `scoped_lock`,
 * `unique_lock`) acquire at their declaration and are modeled as
 * held until function exit — a deliberate approximation (block
 * scopes are not tracked) that can only miss findings, never
 * invent them. `unique_lock` receivers may `.lock()`/`.unlock()`
 * freely: the guard's destructor makes that discipline safe.
 *
 * Combined with the call graph, the pass computes an *escape set*:
 * functions reachable from `core::Executor` task submissions
 * (`forEach`/`forEachCollect` call sites, plus everything defined
 * in the executor implementation itself — the thread entry
 * universe). Writes in escaped code are the race surface.
 *
 * Two rules, both carrying SARIF codeFlows; their names and
 * summaries are rows of the rule table (rules.hh):
 *
 *  race-shared-write  write to a mutable static or a
 *      by-reference-captured enclosing local, in escaped code,
 *      with an empty must-lockset
 *  lock-leak          raw `.lock()` with no `.unlock()` on some
 *      path to the function exit
 *
 * A write is a statement that starts with an identifier followed by
 * an assignment operator, `++` or `--`, or with `++`/`--` followed
 * by an identifier. Escaped functions and executor task lambdas use
 * the same test.
 *
 * A discarded error-carrying bool in serve code is the compiler's
 * job: those functions are [[nodiscard]] and the build uses
 * -Werror. A double-lock or an unlock of an unlocked mutex is
 * TSan's: the CI `tsan` job reports both on the paths the threaded
 * tests run (docs/ARCHITECTURE.md, "What each rule catches").
 *
 * Suppression uses the existing token pragma machinery: a
 * well-formed `allow(<rule>) -- <reason>` comment on the finding
 * line (or the line above) silences it and counts as suppressed.
 * Reports are byte-identical across runs and enumeration orders —
 * the pass walks files in their (already sorted) input order only.
 */

#ifndef NETCHAR_LINT_CONCURRENCY_HH
#define NETCHAR_LINT_CONCURRENCY_HH

#include <vector>

#include "lint/callgraph.hh"
#include "lint/parser.hh"
#include "lint/rules.hh"
#include "lint/summary.hh"

namespace netchar::lint
{

/** Outcome of the concurrency pass over one parsed file set. */
struct ConcurrencyAnalysis
{
    /** Findings in emission order (the caller sorts). Each carries
     *  Finding::function and Finding::lockset for the JSON
     *  `locksets` array. */
    std::vector<Finding> findings;
    /** Findings an allow() pragma silenced. */
    std::size_t suppressed = 0;
    /** Functions reachable from executor task submissions. */
    std::size_t escapedFunctions = 0;
};

/** Run the pass. `files` must already be in sorted path order;
 *  `graph`, `summaries` and `locks` must have been built over the
 *  same `files`, `locks` by the `computeSummaries` call that
 *  returned `summaries`. The pass rebinds each function's call
 *  events to `summaries` and frees its lock model once used. Calls
 *  to functions with a net lock effect (summary.hh) are lockset
 *  events, so a mutex locked in `acquire()` and released in
 *  `release()` is tracked through the callers that pair them, and
 *  a lock leaked through a helper is reported at the root caller. */
ConcurrencyAnalysis
analyzeConcurrency(const std::vector<FileModel> &files,
                   const CallGraph &graph,
                   const SummarySet &summaries, LockModel locks);

} // namespace netchar::lint

#endif // NETCHAR_LINT_CONCURRENCY_HH
