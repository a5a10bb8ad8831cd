#include "lint/lint.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>

#include "lint/concurrency.hh"
#include "lint/parser.hh"
#include "lint/taint.hh"
#include "stats/textio.hh"

namespace netchar::lint
{

namespace
{

namespace fs = std::filesystem;

/** Extensions the walker treats as C++ sources. */
constexpr std::string_view kExtensions[] = {
    ".cc", ".hh", ".cpp", ".hpp", ".h", ".cxx", ".hxx",
};

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    for (const std::string_view e : kExtensions)
        if (ext == e)
            return true;
    return false;
}

/** Directories the walker never descends into. */
bool
isSkippedDir(const fs::path &p)
{
    const std::string name = p.filename().string();
    return name.empty() || name.front() == '.' ||
           name == "build" || name == "_deps" ||
           name.rfind("build-", 0) == 0;
}

double
secondsBetween(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Path-wise ordering of flow hops, the final sort tie-break: two
 *  flow findings can agree on everything up to the message (same
 *  sink, same rule, same hop count) yet trace distinct paths. */
bool
pathLess(const std::vector<FlowHop> &a,
         const std::vector<FlowHop> &b)
{
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i].file != b[i].file)
            return a[i].file < b[i].file;
        if (a[i].line != b[i].line)
            return a[i].line < b[i].line;
        if (a[i].column != b[i].column)
            return a[i].column < b[i].column;
        if (a[i].note != b[i].note)
            return a[i].note < b[i].note;
    }
    return a.size() < b.size();
}

void
sortFindings(std::vector<Finding> &findings)
{
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.column != b.column)
                      return a.column < b.column;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  if (a.message != b.message)
                      return a.message < b.message;
                  return pathLess(a.path, b.path);
              });
}

/**
 * Validate pragmas (appending `bad-pragma` findings) and drop
 * token findings a valid pragma covers. A pragma covers its own
 * line and the line directly below, for the named rules only.
 * allow-flow() pragmas are validated here but suppress nothing at
 * the token layer — the taint pass consumes them as sanitizers.
 */
void
applyPragmas(const std::string &path, const LexedFile &lexed,
             std::vector<Finding> &found, FileUnit &unit)
{
    struct Suppression
    {
        int line;
        int endLine;
        std::string rule;
    };
    std::vector<Suppression> active;

    for (const Pragma &pragma : lexed.pragmas) {
        if (pragma.malformed) {
            Finding f;
            f.file = path;
            f.line = pragma.line;
            f.column = 1;
            f.rule = "bad-pragma";
            f.severity = Severity::Error;
            f.message = pragma.error;
            unit.findings.push_back(std::move(f));
            continue;
        }
        for (const std::string &rule : pragma.rules) {
            if (pragma.flow) {
                if (!isFlowRuleName(rule)) {
                    Finding f;
                    f.file = path;
                    f.line = pragma.line;
                    f.column = 1;
                    f.rule = "bad-pragma";
                    f.severity = Severity::Error;
                    f.message = "allow-flow() names unknown flow "
                                "rule '" +
                                rule + "'";
                    unit.findings.push_back(std::move(f));
                }
                continue;
            }
            if (!isRuleName(rule) &&
                !isConcurrencyRuleName(rule)) {
                Finding f;
                f.file = path;
                f.line = pragma.line;
                f.column = 1;
                f.rule = "bad-pragma";
                f.severity = Severity::Error;
                f.message =
                    "allow() names unknown rule '" + rule + "'";
                unit.findings.push_back(std::move(f));
                continue;
            }
            active.push_back({pragma.line, pragma.endLine, rule});
        }
    }

    for (Finding &f : found) {
        bool suppressed = false;
        for (const Suppression &s : active)
            if (f.rule == s.rule && f.line >= s.line &&
                f.line <= s.endLine + 1) {
                suppressed = true;
                break;
            }
        if (suppressed)
            ++unit.suppressed;
        else
            unit.findings.push_back(std::move(f));
    }
}

} // namespace

bool
LintResult::hasError() const
{
    for (const Finding &f : findings)
        if (f.severity == Severity::Error)
            return true;
    return false;
}

FileUnit
analyzeFileUnit(const std::string &path, std::string_view content)
{
    using clock = std::chrono::steady_clock;
    FileUnit unit;
    const clock::time_point t0 = clock::now();
    LexedFile lexed = lex(content);
    const clock::time_point t1 = clock::now();
    std::vector<Finding> found;
    for (const auto &rule : allRules())
        if (rule->appliesTo(path))
            rule->check(path, lexed, found);
    applyPragmas(path, lexed, found, unit);
    const clock::time_point t2 = clock::now();
    unit.model = parseFile(path, std::move(lexed));
    const clock::time_point t3 = clock::now();
    unit.lexSeconds = secondsBetween(t0, t1);
    unit.rulesSeconds = secondsBetween(t1, t2);
    unit.parseSeconds = secondsBetween(t2, t3);
    return unit;
}

LintResult
assembleUnits(std::vector<FileUnit> units, const LintOptions &opts,
              AssembleTimes *times)
{
    using clock = std::chrono::steady_clock;
    LintResult result;
    result.filesScanned = units.size();
    for (FileUnit &unit : units) {
        for (Finding &f : unit.findings)
            result.findings.push_back(std::move(f));
        result.suppressedCount += unit.suppressed;
    }

    const bool crossFile = opts.taint || opts.concurrency;
    if (crossFile) {
        std::vector<FileModel> models;
        models.reserve(units.size());
        for (FileUnit &unit : units)
            models.push_back(std::move(unit.model));
        const clock::time_point t0 = clock::now();
        // One call graph and one summary set feed both cross-file
        // passes; their statistics surface in the schema-v4 report
        // either way.
        const CallGraph graph(models);
        const SummarySet sums = computeSummaries(models, graph);
        result.callSites = graph.stats().callSites;
        result.unresolvedCalls = graph.stats().unresolvedCalls;
        result.summaries = sums.stats();
        if (opts.taint) {
            TaintAnalysis taint = analyzeTaint(models, graph, sums);
            for (Finding &f : taint.flows)
                result.findings.push_back(std::move(f));
            result.suppressedCount += taint.suppressed;
        }
        if (opts.concurrency) {
            ConcurrencyAnalysis conc =
                analyzeConcurrency(models, graph, sums);
            for (Finding &f : conc.findings)
                result.findings.push_back(std::move(f));
            result.suppressedCount += conc.suppressed;
            result.escapedFunctions = conc.escapedFunctions;
        }
        if (times != nullptr)
            times->summarySeconds +=
                secondsBetween(t0, clock::now());
    }

    sortFindings(result.findings);
    return result;
}

LintResult
lintSource(const std::string &path, std::string_view content)
{
    LintOptions opts;
    opts.taint = false;
    opts.concurrency = false;
    return lintSources({{path, std::string(content)}}, opts);
}

LintResult
lintSources(std::vector<SourceBuffer> sources,
            const LintOptions &opts)
{
    // Sorted-path order, so the taint worklist (and through it the
    // report bytes) never depends on the order the caller found
    // the files in.
    std::sort(sources.begin(), sources.end(),
              [](const SourceBuffer &a, const SourceBuffer &b) {
                  return a.path < b.path;
              });

    std::vector<FileUnit> units;
    units.reserve(sources.size());
    for (const SourceBuffer &src : sources)
        units.push_back(analyzeFileUnit(src.path, src.content));
    return assembleUnits(std::move(units), opts);
}

std::vector<std::string>
discoverFiles(const std::vector<std::string> &paths,
              std::vector<std::string> &errors)
{
    std::vector<std::string> files;
    for (const std::string &p : paths) {
        std::error_code ec;
        const fs::file_status st = fs::status(p, ec);
        if (ec) {
            errors.push_back(p + ": " + ec.message());
            continue;
        }
        if (fs::is_regular_file(st)) {
            files.push_back(
                fs::path(p).lexically_normal().generic_string());
            continue;
        }
        if (!fs::is_directory(st)) {
            errors.push_back(p + ": not a file or directory");
            continue;
        }
        fs::recursive_directory_iterator it(p, ec), end;
        if (ec) {
            errors.push_back(p + ": " + ec.message());
            continue;
        }
        for (; it != end; it.increment(ec)) {
            if (ec) {
                errors.push_back(p + ": " + ec.message());
                break;
            }
            if (it->is_directory()) {
                if (isSkippedDir(it->path()))
                    it.disable_recursion_pending();
                continue;
            }
            if (it->is_regular_file() && isSourceFile(it->path()))
                files.push_back(it->path()
                                    .lexically_normal()
                                    .generic_string());
        }
    }

    // Lexicographic order, never enumeration order: reports must be
    // byte-identical across filesystems, repeated runs, and
    // repeated or overlapping path arguments.
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()),
                files.end());
    return files;
}

std::string
renderText(const LintResult &result)
{
    std::ostringstream out;
    std::size_t nerror = 0;
    std::size_t nwarning = 0;
    for (const Finding &f : result.findings) {
        out << f.file << ':' << f.line << ": " << f.rule << ": "
            << f.message << '\n';
        for (std::size_t i = 0; i < f.path.size(); ++i) {
            const FlowHop &hop = f.path[i];
            out << "    #" << i + 1 << ' ' << hop.file << ':'
                << hop.line << ':' << hop.column << ": " << hop.note
                << '\n';
        }
        if (f.severity == Severity::Error)
            ++nerror;
        else
            ++nwarning;
    }
    out << "netchar-lint: " << result.findings.size()
        << " finding(s) (" << nerror << " error(s), " << nwarning
        << " warning(s)), " << result.suppressedCount
        << " suppressed, " << result.filesScanned
        << " file(s) scanned\n";
    return out.str();
}

std::string
renderJson(const LintResult &result, const LintStats *stats)
{
    std::ostringstream out;
    std::size_t nerror = 0;
    std::size_t nwarning = 0;
    for (const Finding &f : result.findings) {
        if (f.severity == Severity::Error)
            ++nerror;
        else
            ++nwarning;
    }
    out << "{\n  \"version\": 4,\n  \"filesScanned\": "
        << result.filesScanned
        << ",\n  \"suppressed\": " << result.suppressedCount
        << ",\n  \"counts\": {\"error\": " << nerror
        << ", \"warning\": " << nwarning
        << "},\n  \"callGraph\": {\"callSites\": "
        << result.callSites
        << ", \"unresolvedCalls\": " << result.unresolvedCalls
        << ", \"escapedFunctions\": " << result.escapedFunctions
        << "},\n  \"summaries\": {\"functions\": "
        << result.summaries.functions
        << ", \"sccs\": " << result.summaries.sccs
        << ", \"largestScc\": " << result.summaries.largestScc
        << ", \"fixpointPasses\": "
        << result.summaries.fixpointPasses
        << ", \"returnTaints\": " << result.summaries.returnTaints
        << ", \"paramReturnFlows\": "
        << result.summaries.paramReturnFlows
        << ", \"paramSinkFlows\": "
        << result.summaries.paramSinkFlows
        << ", \"lockEffects\": " << result.summaries.lockEffects
        << "}";
    if (stats != nullptr)
        out << ",\n  \"stats\": {\"lexSeconds\": "
            << stats->lexSeconds
            << ", \"parseSeconds\": " << stats->parseSeconds
            << ", \"rulesSeconds\": " << stats->rulesSeconds
            << ", \"summarySeconds\": " << stats->summarySeconds
            << "}";
    out << ",\n  \"findings\": [";
    bool first = true;
    for (const Finding &f : result.findings) {
        out << (first ? "\n" : ",\n")
            << "    {\"file\": \"" << jsonEscape(f.file)
            << "\", \"line\": " << f.line
            << ", \"column\": " << f.column << ", \"rule\": \""
            << jsonEscape(f.rule) << "\", \"severity\": \""
            << severityName(f.severity) << "\", \"message\": \""
            << jsonEscape(f.message) << "\"}";
        first = false;
    }
    out << (first ? "]" : "\n  ]") << ",\n  \"flows\": [";
    first = true;
    for (const Finding &f : result.findings) {
        if (f.path.empty())
            continue;
        out << (first ? "\n" : ",\n")
            << "    {\"rule\": \"" << jsonEscape(f.rule)
            << "\", \"sinkFile\": \"" << jsonEscape(f.file)
            << "\", \"sinkLine\": " << f.line << ", \"path\": [";
        bool firstHop = true;
        for (const FlowHop &hop : f.path) {
            out << (firstHop ? "\n" : ",\n")
                << "      {\"file\": \"" << jsonEscape(hop.file)
                << "\", \"line\": " << hop.line
                << ", \"column\": " << hop.column
                << ", \"note\": \"" << jsonEscape(hop.note)
                << "\"}";
            firstHop = false;
        }
        out << (firstHop ? "]}" : "\n    ]}");
        first = false;
    }
    out << (first ? "]" : "\n  ]") << ",\n  \"locksets\": [";
    first = true;
    for (const Finding &f : result.findings) {
        if (!isConcurrencyRuleName(f.rule))
            continue;
        out << (first ? "\n" : ",\n")
            << "    {\"rule\": \"" << jsonEscape(f.rule)
            << "\", \"file\": \"" << jsonEscape(f.file)
            << "\", \"line\": " << f.line << ", \"function\": \""
            << jsonEscape(f.function) << "\", \"held\": [";
        bool firstHeld = true;
        for (const std::string &r : f.lockset) {
            out << (firstHeld ? "" : ", ") << '"' << jsonEscape(r)
                << '"';
            firstHeld = false;
        }
        out << "]}";
        first = false;
    }
    out << (first ? "]\n}\n" : "\n  ]\n}\n");
    return out.str();
}

std::string
renderStatsText(const LintStats &stats)
{
    std::ostringstream out;
    out << "netchar-lint stats:\n"
        << "  lex       " << stats.lexSeconds << "s\n"
        << "  parse     " << stats.parseSeconds << "s\n"
        << "  rules     " << stats.rulesSeconds << "s\n"
        << "  summaries " << stats.summarySeconds << "s\n";
    return out.str();
}

std::string
listRulesText()
{
    std::ostringstream out;
    for (const auto &rule : allRules())
        out << rule->name() << " (" << severityName(rule->severity())
            << "): " << rule->summary() << '\n';
    out << "bad-pragma (error): reserved - a netchar-lint pragma "
           "that is malformed, lacks a reason, or names an "
           "unknown rule\n";
    for (const std::string_view fr : flowRuleNames())
        out << fr << " (error): " << flowRuleSummary(fr) << '\n';
    for (const std::string_view cr : concurrencyRuleNames())
        out << cr << " ("
            << severityName(concurrencyRuleSeverity(cr))
            << "): " << concurrencyRuleSummary(cr) << '\n';
    return out.str();
}

} // namespace netchar::lint
