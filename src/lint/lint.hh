/**
 * @file
 * netchar-lint driver: file discovery, pragma suppression, taint
 * analysis and deterministic report rendering.
 *
 * Determinism is a feature of the linter itself, not just what it
 * checks: discovered files are sorted lexicographically (never the
 * directory enumeration order), findings are sorted by
 * (file, line, column, rule), and the text, JSON and SARIF
 * renderings are pure functions of the sorted finding list —
 * repeated runs over an unchanged tree are byte-identical, at any
 * --jobs count.
 *
 * Three analysis layers feed the same report:
 *  - token rules (rules.hh), checked per file,
 *  - the flow-aware taint pass (taint.hh), which parses every file
 *    into a declaration-level model, links them through the call
 *    graph and reports nondeterminism sources that reach the
 *    serialization surface, carrying the full source→…→sink path,
 *  - the CFG/lockset concurrency pass (concurrency.hh).
 * Both cross-file passes consume the per-function interprocedural
 * summaries of summary.hh, computed bottom-up over the call graph's
 * strongly connected components.
 *
 * The pipeline is split to support parallel driving (driver.hh):
 * analyzeFileUnit() does all the per-file work (lex, token rules,
 * pragma suppression, parse) and is a pure function of (path,
 * content) — safe to fan out over an executor — while
 * assembleUnits() does the cross-file work (call graph, summaries,
 * taint, concurrency) and the final deterministic sort.
 *
 * Suppression contract: a token finding is dropped only when a
 * well-formed netchar-lint `allow(<rule>) -- <reason>` pragma
 * comment names its rule on the same line or the line directly
 * above. Flow findings are silenced by `allow-flow(<flow-rule>) --
 * <reason>` on any hop of the path (or by an allow() on the source
 * site — see taint.hh). Malformed pragmas (missing reason, unknown
 * rule, bad syntax) are themselves findings under the reserved rule
 * name `bad-pragma` and suppress nothing.
 */

#ifndef NETCHAR_LINT_LINT_HH
#define NETCHAR_LINT_LINT_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "lint/parser.hh"
#include "lint/rules.hh"
#include "lint/summary.hh"

namespace netchar::lint
{

/** Outcome of linting one buffer or a whole tree. */
struct LintResult
{
    /** Unsuppressed findings, sorted (file, line, column, rule).
     *  Flow findings carry their source→…→sink path. */
    std::vector<Finding> findings;
    /** How many findings valid pragmas suppressed (token findings
     *  plus sanitized flows and silenced concurrency findings). */
    std::size_t suppressedCount = 0;
    std::size_t filesScanned = 0;
    /** Call-graph link statistics (schema v3 `callGraph` object);
     *  zero when neither cross-file pass ran. */
    std::size_t callSites = 0;
    std::size_t unresolvedCalls = 0;
    /** Functions the concurrency pass proved reachable from
     *  executor task submissions. */
    std::size_t escapedFunctions = 0;
    /** Interprocedural summary statistics (schema v4 `summaries`
     *  object); zero when neither cross-file pass ran. */
    SummaryStats summaries;
    /** True when any finding has Severity::Error. */
    bool hasError() const;
};

/** Analysis knobs shared by every lint entry point. */
struct LintOptions
{
    /** Run the flow-aware taint pass (on by default). */
    bool taint = true;
    /** Run the CFG/lockset concurrency pass (on by default). */
    bool concurrency = true;
};

/** One in-memory source buffer with the path it pretends to live
 *  at (the path drives per-rule directory scoping). */
struct SourceBuffer
{
    std::string path;
    std::string content;
};

/**
 * Everything the per-file phase produces for one source buffer: the
 * parsed declaration model plus the pragma-filtered token findings.
 * A FileUnit is a pure function of (path, content) — no analysis
 * option reaches the per-file phase — which is what makes it the
 * unit of parallelism (driver.hh).
 */
struct FileUnit
{
    /** Declaration-level model; model.path names the file. */
    FileModel model;
    /** Token and bad-pragma findings that survived suppression. */
    std::vector<Finding> findings;
    /** Token findings a valid allow() pragma dropped. */
    std::size_t suppressed = 0;
    /** Per-phase wall time of this unit's analysis. */
    double lexSeconds = 0;
    double rulesSeconds = 0;
    double parseSeconds = 0;
};

/** Wall time spent in assembleUnits' cross-file phase. */
struct AssembleTimes
{
    /** Call graph + summaries + taint + concurrency, together. */
    double summarySeconds = 0;
};

/** --stats payload: per-phase timing. Timings are nondeterministic
 *  by nature, so stats never appear in a report unless explicitly
 *  requested. */
struct LintStats
{
    double lexSeconds = 0;
    double parseSeconds = 0;
    double rulesSeconds = 0;
    double summarySeconds = 0;
};

/**
 * Run the per-file phase on one buffer: lex, token rules, pragma
 * validation and suppression, declaration parse. Thread-safe with
 * respect to other analyzeFileUnit calls — it touches only its
 * arguments and the immutable rule registry.
 */
FileUnit analyzeFileUnit(const std::string &path,
                         std::string_view content);

/**
 * Run the cross-file phase and build the final report: merge unit
 * findings, build the call graph and interprocedural summaries,
 * run the taint and concurrency passes, sort. `units` must be in
 * sorted model.path order; the result is byte-deterministic given
 * that order. `times` (optional) receives phase wall time.
 */
LintResult assembleUnits(std::vector<FileUnit> units,
                         const LintOptions &opts = {},
                         AssembleTimes *times = nullptr);

/**
 * Expand files and directory trees into the sorted, de-duplicated
 * list of C++ sources (.cc/.hh/.cpp/.hpp/.h/.cxx/.hxx). Paths are
 * lexically normalized first, so repeated or overlapping arguments
 * (`src src ./src/lint`) visit each file once and the report order
 * never depends on how the caller spelled the paths. An unreadable
 * path appends to `errors` and is otherwise skipped.
 */
std::vector<std::string>
discoverFiles(const std::vector<std::string> &paths,
              std::vector<std::string> &errors);

/**
 * Lint one in-memory buffer, token rules only. This is the
 * single-file unit-test entry point; taint needs the whole file set
 * and lives in lintSources().
 */
LintResult lintSource(const std::string &path,
                      std::string_view content);

/**
 * Lint a set of in-memory buffers as one tree: token rules per
 * file, then (when `opts.taint`) the cross-file taint pass.
 * Buffers are processed in sorted-path order regardless of the
 * order given.
 */
LintResult lintSources(std::vector<SourceBuffer> sources,
                       const LintOptions &opts = {});

/** Render `file:line: rule: message` lines (flow findings followed
 *  by their indented hop lines) plus a summary line. */
std::string renderText(const LintResult &result);

/**
 * Render the machine-readable JSON report (schema version 4: v2
 * added the `flows` array of taint paths; v3 the `callGraph` link
 * statistics and the `locksets` array; v4 the `summaries` object
 * of interprocedural summary statistics and — only when `stats` is
 * non-null — the `stats` object of per-phase timings). Without
 * `stats` the rendering is a pure function of the result,
 * byte-identical across runs.
 */
std::string renderJson(const LintResult &result,
                       const LintStats *stats = nullptr);

/** Render the --stats payload as human-readable text lines. */
std::string renderStatsText(const LintStats &stats);

/** One line per registered rule — token rules, the reserved
 *  bad-pragma rule, the flow rules, then the concurrency rules. */
std::string listRulesText();

} // namespace netchar::lint

#endif // NETCHAR_LINT_LINT_HH
