/**
 * @file
 * The netchar-lint rule table: every rule of every analysis layer,
 * with its name, family and summary, in one array, plus the token
 * rules' checks over the token stream.
 *
 * Every result this reproduction publishes rests on one invariant:
 * a (workload, machine, seed) triple produces byte-identical output
 * at any --jobs value, on any host. The token rules encode the ways
 * that invariant has historically been broken in measurement
 * harnesses:
 *
 *  - no-wallclock           host clocks in src/ outside
 *                           stats/hostclock.cc
 *  - no-ambient-rng         unseeded randomness anywhere
 *  - no-unordered-iteration hash-order iteration feeding output
 *  - no-unguarded-static    unsynchronized mutable static state
 *  - no-silent-catch        catch (...) that swallows the error
 *  - no-raw-thread          parallelism outside the executor
 *  - no-pointer-hash        hashing/laundering raw pointer values
 *                           (addresses differ per run under ASLR)
 *
 * The same table also names `bad-pragma` (the pragma grammar), the
 * flow rules the taint pass reports (taint.hh) and the concurrency
 * rules of the lockset pass (concurrency.hh). --list-rules, the SARIF
 * rule metadata, pragma validation, the flow sanitizers and the JSON
 * `locksets` filter all read this table and nothing else. Every rule
 * is an error.
 *
 * no-ambient-rng and no-pointer-hash check every path, so they are
 * the whole check for those sources: the taint pass (taint.hh) does
 * not trace them to a sink. Host clocks are checked twice, because
 * no-wallclock exempts hostSeconds() and flow-wallclock does not.
 *
 * Rules are heuristic token matchers, not a type checker: they err
 * on the side of flagging, and every intentional exception must be
 * written down as an `allow(...)` pragma with a reason — which is
 * the point: exceptions become visible, reviewed text.
 */

#ifndef NETCHAR_LINT_RULES_HH
#define NETCHAR_LINT_RULES_HH

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.hh"

namespace netchar::lint
{

/** One step of a taint path (source → ... → sink), for flow
 *  findings. Token-rule findings carry no hops. */
struct FlowHop
{
    std::string file;
    int line = 0;
    int column = 0;
    std::string note; ///< human-readable description of the step
};

/** One reported violation (or pragma defect). */
struct Finding
{
    std::string file;
    int line = 0;
    int column = 0;
    std::string rule;
    std::string message;
    /** Source→…→sink path; non-empty exactly for flow findings. */
    std::vector<FlowHop> path;
    /** Concurrency findings only (concurrency.hh): the enclosing
     *  function and the sorted must-held lockset at the finding
     *  site, surfaced as the JSON `locksets` array. */
    std::string function;
    std::vector<std::string> lockset;
};

/** Which layer reports a rule. The family also decides which pragma
 *  may name it: `allow(...)` takes token and concurrency rules,
 *  `allow-flow(...)` flow rules, and no pragma names `bad-pragma`. */
enum class RuleFamily
{
    Token,       ///< per-file check over the token stream (below)
    Pragma,      ///< bad-pragma: a pragma that is itself a defect
    Flow,        ///< the taint pass (taint.hh)
    Concurrency, ///< the lockset pass (concurrency.hh)
};

/** One row of the rule table. */
struct RuleInfo
{
    std::string_view name;
    RuleFamily family;
    /** One-line description for --list-rules and SARIF. */
    std::string_view summary;
    /** Token rules only: the path scope. The rule checks files
     *  inside `dir` (every file when empty) whose path does not
     *  contain `exempt` (when non-empty). */
    std::string_view dir = {};
    std::string_view exempt = {};
    /** Token rules only: appends one finding per violation, with
     *  line, column and message set; the caller sets file and
     *  rule. */
    void (*check)(const std::vector<Token> &toks,
                  std::vector<Finding> &out) = nullptr;

    /** Whether this token rule checks the file at `path`. */
    bool appliesTo(std::string_view path) const;
};

/** Every rule, in fixed order: the token rules, bad-pragma, the flow
 *  rules, then the concurrency rules (report order never depends on
 *  it; --list-rules and SARIF print it). */
std::span<const RuleInfo> ruleTable();

/** True when `name` names a rule of `family` in the table. */
bool isRuleIn(std::string_view name, RuleFamily family);

/**
 * True when `path` (forward slashes) lies inside directory `dir`
 * (e.g. dir "src/sim" matches "src/sim/core.cc" and
 * "/root/repo/src/sim/core.cc" but not "src/simx/a.cc").
 */
bool pathInDir(std::string_view path, std::string_view dir);

/**
 * Host-clock vocabularies shared between no-wallclock and the taint
 * source model (summary.cc): the two layers must agree on what a
 * host-clock source looks like, so the tables live in one place.
 */
const std::vector<std::string_view> &clockTypeNames();
const std::vector<std::string_view> &hostTimeCallNames();

} // namespace netchar::lint

#endif // NETCHAR_LINT_RULES_HH
