/**
 * @file
 * The netchar-lint rule registry: determinism and concurrency
 * invariants of this repo, expressed as named, severity-ranked
 * checks over the token stream.
 *
 * Every result this reproduction publishes rests on one invariant:
 * a (workload, machine, seed) triple produces byte-identical output
 * at any --jobs value, on any host. The rules encode the ways that
 * invariant has historically been broken in measurement harnesses:
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

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.hh"

namespace netchar::lint
{

enum class Severity
{
    Warning,
    Error,
};

/** "warning" / "error". */
std::string_view severityName(Severity severity);

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
    Severity severity = Severity::Error;
    std::string message;
    /** Source→…→sink path; non-empty exactly for flow findings. */
    std::vector<FlowHop> path;
    /** Concurrency findings only (concurrency.hh): the enclosing
     *  function and the sorted must-held lockset at the finding
     *  site, surfaced as the JSON `locksets` array. */
    std::string function;
    std::vector<std::string> lockset;
};

/** One lint rule: a name, a scope predicate and a token checker. */
class Rule
{
  public:
    virtual ~Rule() = default;

    virtual std::string_view name() const = 0;
    virtual Severity severity() const = 0;
    /** One-line description for --list-rules and docs. */
    virtual std::string_view summary() const = 0;
    /** Whether the rule checks the file at this repo-relative path. */
    virtual bool appliesTo(std::string_view path) const = 0;
    virtual void check(std::string_view path, const LexedFile &lexed,
                       std::vector<Finding> &out) const = 0;
};

/** The registry, in fixed order (report order never depends on it). */
const std::vector<std::unique_ptr<Rule>> &allRules();

/** True when `name` names a registered rule (pragma validation). */
bool isRuleName(std::string_view name);

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
