/**
 * @file
 * Flow-aware determinism taint analysis.
 *
 * The token rules (rules.hh) catch nondeterminism *sources* at the
 * call site; this pass proves the stronger invariant the repo's
 * results rest on: a nondeterministic value never reaches serialized
 * output. It is a forward taint propagation over the declaration-
 * level models from parser.hh, linked across files by the call graph
 * (callgraph.hh), with a classic source/sanitizer/sink model:
 *
 *  sources     host clocks (steady_clock/system_clock/... and the C
 *              time functions), environment reads (getenv), thread
 *              ids. Ambient randomness and pointer-to-integer casts
 *              are not traced: the no-ambient-rng and
 *              no-pointer-hash token rules flag them at the same
 *              token on every path, so a flow finding would only
 *              repeat them
 *  sanitizers  an `allow-flow(<flow-rule>) -- <reason>` pragma on
 *              any hop of the path; an `allow(no-wallclock)` pragma
 *              on a host-clock source site (the token rule and
 *              flow-wallclock describe the same exception, so one
 *              pragma serves both layers); and the whitelisted
 *              run-ledger field (SuiteRunStats' wallSeconds) as an
 *              assignment target.
 *              No pragma covers hostSeconds() (stats/hostclock.cc,
 *              exempt from no-wallclock by path), so every use of
 *              the repo's one host clock is tainted
 *  sinks       the serialization surface: the textio csv/json
 *              helpers and every export entry point (suite stats,
 *              failure ledger, trace exporters) — i.e. anything that
 *              can end up in a --ledger/--stats/--trace-out stream
 *
 * Findings are reported under the flow rules (flow-wallclock,
 * flow-env, flow-threadid; rows of the rule table in rules.hh, which
 * also names what allow-flow(...) accepts), anchored at the sink,
 * and carry the full source→…→sink path, one FlowHop per
 * propagation step. Propagation is monotone (a variable,
 * parameter or return slot is tainted at most once, first writer
 * wins in deterministic worklist order), so the pass terminates and
 * its report bytes are a pure function of the sorted input set.
 */

#ifndef NETCHAR_LINT_TAINT_HH
#define NETCHAR_LINT_TAINT_HH

#include <vector>

#include "lint/callgraph.hh"
#include "lint/parser.hh"
#include "lint/rules.hh"
#include "lint/summary.hh"

namespace netchar::lint
{

/** Outcome of the taint pass over one parsed file set. */
struct TaintAnalysis
{
    /** Flow findings (non-empty Finding::path), emission order. */
    std::vector<Finding> flows;
    /** Distinct flows an allow-flow sanitizer pragma silenced. */
    std::size_t suppressed = 0;
};

/** Run the taint pass over interprocedural summaries the caller
 *  already computed (summary.hh) — the driver shares one call graph
 *  and one SummarySet between the taint and concurrency passes.
 *  `files` must already be in sorted path order; the result is
 *  deterministic given that order. */
TaintAnalysis analyzeTaint(const std::vector<FileModel> &files,
                           const CallGraph &graph,
                           const SummarySet &summaries);

} // namespace netchar::lint

#endif // NETCHAR_LINT_TAINT_HH
