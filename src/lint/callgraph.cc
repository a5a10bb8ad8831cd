#include "lint/callgraph.hh"

#include <algorithm>

namespace netchar::lint
{

bool
qualifiedSuffixMatches(const std::string &def,
                       const std::string &call)
{
    if (def == call)
        return true;
    // The suffix must be preceded by a full `::` separator, so any
    // shorter definition — including one exactly one character
    // longer than the call, where the old `<=` guard let the
    // separator position underflow — cannot match.
    if (def.size() < call.size() + 2)
        return false;
    return def.compare(def.size() - call.size(), call.size(),
                       call) == 0 &&
           def.compare(def.size() - call.size() - 2, 2, "::") == 0;
}

CallGraph::CallGraph(const std::vector<FileModel> &files)
{
    // Qualified spelling of each definition, parallel to defs_.
    std::map<std::string, std::vector<std::string>> defQualified;
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        const FileModel &file = files[fi];
        for (std::size_t gi = 0; gi < file.functions.size(); ++gi) {
            const FunctionModel &fn = file.functions[gi];
            defs_[fn.name].push_back({fi, gi});
            defQualified[fn.name].push_back(
                fn.qualified.empty() ? fn.name : fn.qualified);
        }
    }
    const auto link =
        [&](const CallSite &call) -> const std::vector<FunctionRef> & {
        const auto it = defs_.find(call.callee);
        if (it == defs_.end())
            return empty_;
        const std::vector<FunctionRef> &all = it->second;
        if (call.qualified.empty() || call.qualified == call.callee)
            return all;
        const auto [q, fresh] =
            qualifiedDefs_.try_emplace(call.qualified);
        if (fresh) {
            const std::vector<std::string> &quals =
                defQualified.at(call.callee);
            for (std::size_t i = 0; i < all.size(); ++i)
                if (qualifiedSuffixMatches(quals[i], call.qualified))
                    q->second.push_back(all[i]);
        }
        // Definitions written inside `namespace ns { ... }` carry no
        // `ns::` in their spelling, so a qualified call may match
        // none of them textually; keep the conservative bare-name
        // link set rather than dropping the edge.
        return q->second.empty() ? all : q->second;
    };
    // Second pass, once every definition is known: the resolution
    // table, caller edges and the link statistics.
    sites_.resize(files.size());
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        const FileModel &file = files[fi];
        std::vector<const std::vector<FunctionRef> *> &table =
            sites_[fi];
        for (std::size_t gi = 0; gi < file.functions.size(); ++gi)
            for (const Statement &st : file.functions[gi].stmts)
                for (const CallSite &call : st.calls) {
                    callers_[call.callee].push_back({fi, gi});
                    ++stats_.callSites;
                    const std::vector<FunctionRef> &defs = link(call);
                    if (defs.empty())
                        ++stats_.unresolvedCalls;
                    if (table.size() <= call.ordinal)
                        table.resize(call.ordinal + 1, &empty_);
                    table[call.ordinal] = &defs;
                }
    }
    // A function calling `f` twice is one caller edge.
    for (auto &[name, refs] : callers_) {
        std::sort(refs.begin(), refs.end());
        refs.erase(std::unique(refs.begin(), refs.end()),
                   refs.end());
    }
}

const std::vector<FunctionRef> &
CallGraph::definitionsOf(const std::string &name) const
{
    const auto it = defs_.find(name);
    return it == defs_.end() ? empty_ : it->second;
}

const std::vector<FunctionRef> &
CallGraph::callersOf(const std::string &name) const
{
    const auto it = callers_.find(name);
    return it == callers_.end() ? empty_ : it->second;
}

} // namespace netchar::lint
