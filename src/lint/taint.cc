#include "lint/taint.hh"

#include <set>
#include <sstream>

#include "lint/callgraph.hh"
#include "lint/summary.hh"

namespace netchar::lint
{

namespace
{

/** Dedup key of one flow: rule plus the full hop path. */
std::string
flowKey(const SinkEvent &ev)
{
    std::ostringstream key;
    key << ev.rule;
    for (const FlowHop &h : ev.path)
        key << '|' << h.file << ':' << h.line << ':' << h.column
            << ':' << h.note;
    return key.str();
}

} // namespace

TaintAnalysis
analyzeTaint(const std::vector<FileModel> &files,
             const CallGraph &graph, const SummarySet &sums)
{
    // Sanitizer spans per file path, for the any-hop suppression
    // check (lint.hh: an allow-flow pragma on any hop of the path
    // silences the flow).
    std::map<std::string, const std::vector<FlowSanitizer> *>
        sanitizers;
    for (std::size_t fi = 0; fi < files.size(); ++fi)
        sanitizers.emplace(files[fi].path, &sums.sanitizersOf(fi));

    TaintAnalysis out;
    std::set<std::string> flowKeys;
    std::set<std::string> suppressedKeys;
    forEachConcreteFlow(
        files, graph, sums, [&](SinkEvent ev) {
            std::string key = flowKey(ev);
            bool sanitized = false;
            for (const FlowHop &h : ev.path) {
                const auto it = sanitizers.find(h.file);
                if (it != sanitizers.end() &&
                    flowSanitizedAt(*it->second, h.line, ev.rule)) {
                    sanitized = true;
                    break;
                }
            }
            if (sanitized) {
                suppressedKeys.insert(std::move(key));
                return;
            }
            if (!flowKeys.insert(std::move(key)).second)
                return;
            Finding f;
            f.file = ev.sinkFile;
            f.line = ev.sinkLine;
            f.column = ev.sinkColumn;
            f.rule = ev.rule;
            f.message =
                ev.path.front().note +
                " reaches serialization sink '" + ev.sinkCallee +
                "()' through " + std::to_string(ev.path.size()) +
                " hop(s); break the flow or add an allow-flow(" +
                ev.rule + ") pragma with a reason";
            f.path = std::move(ev.path);
            out.flows.push_back(std::move(f));
        });
    out.suppressed = suppressedKeys.size();
    return out;
}

} // namespace netchar::lint
