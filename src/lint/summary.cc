#include "lint/summary.hh"

#include <algorithm>
#include <array>

#include "lint/cfg.hh"
#include "lint/taint.hh"
#include "lint/tokens.hh"

namespace netchar::lint
{

namespace
{

/** The serialization surface. A tainted argument to any of these is
 *  a flow finding: csv/json text helpers, the export entry points,
 *  the trace exporters — everything a --ledger/--stats/--trace-out
 *  stream is written from — and the serve-layer wire/cache builders
 *  (okResponse and friends, requestLine, sweepBodyJson): anything
 *  nondeterministic reaching those would be transmitted to clients
 *  or pinned into the content-addressed result cache. */
constexpr std::string_view kSinkNames[] = {
    "csvField",         "jsonEscape",       "chromeTraceJson",
    "traceCsv",         "suiteStatsCsv",    "suiteStatsJson",
    "failureLedgerCsv", "failureLedgerJson", "metricsCsv",
    "topdownCsv",       "runResultJson",    "suiteJson",
    "okResponse",       "okCachedResponse", "errorResponse",
    "jsonString",       "requestLine",      "sweepBodyJson",
    "errorCodeResponse", "journalRecord",
};

/** Run-ledger fields sanctioned to carry host wall time (the two
 *  justified sites from the PR-4 pragma review): assignments into
 *  them are sanitized, the taint stops there. */
constexpr std::string_view kLedgerFieldWhitelist[] = {
    "wallSeconds",
};

/** Integral-destination check for reinterpret_cast<...>: mirrors
 *  the no-pointer-hash token rule via the shared target table. */
bool
laundersPointer(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    bool integral = false;
    const std::size_t limit = std::min(toks.size(), open + 64);
    for (std::size_t j = open; j < limit; ++j) {
        if (isPunct(toks[j], "<"))
            ++depth;
        else if (isPunct(toks[j], ">"))
            --depth;
        else if (isPunct(toks[j], ">>"))
            depth -= 2;
        else if (isPunct(toks[j], "*"))
            return false;
        else if (idIn(toks[j], pointerLaunderTargets()))
            integral = true;
        if (depth <= 0 && j > open)
            break;
    }
    return integral;
}

// ---------------------------------------------------------------
// Lock-event extraction (the concurrency pass's vocabulary)
// ---------------------------------------------------------------

struct LSite
{
    int line = 0;
    int column = 0;
};

/** One lock-relevant event of a function body, in token order. */
struct LockEv
{
    enum class Kind
    {
        GuardAcquire,
        GuardRelease,
        GuardRelock,
        RawLock,
        RawUnlock,
        Call, ///< apply the callee's net LockEffects
    };
    Kind kind = Kind::RawLock;
    std::vector<std::string> resources;
    const CallSite *call = nullptr;
    std::size_t token = 0;
    int line = 0;
    int column = 0;
};

/** Mode-independent per-function lock facts, extracted once. */
struct LockLocal
{
    Cfg cfg;
    std::vector<std::vector<LockEv>> events; ///< per block
    std::set<std::string> guardResources;
    std::set<std::string> localLocks;
    std::set<std::string> localUnlocks;
    std::map<std::string, LSite> firstRawLock;
};

/** (held, released) dataflow element for the effect computation.
 *  heldMust ∩ / heldMay ∪ at joins track net acquisitions;
 *  relMust ∩ / relMay ∪ track releases of entry-held resources. */
struct EffState
{
    bool reached = false;
    std::set<std::string> heldMust;
    std::set<std::string> heldMay;
    std::set<std::string> relMust;
    std::set<std::string> relMay;

    bool operator==(const EffState &o) const = default;

    bool meet(const EffState &pred)
    {
        if (!pred.reached)
            return false;
        if (!reached) {
            *this = pred;
            return true;
        }
        bool changed = false;
        const auto intersect = [&](std::set<std::string> &mine,
                                   const std::set<std::string> &th) {
            for (auto it = mine.begin(); it != mine.end();)
                if (th.count(*it) == 0) {
                    it = mine.erase(it);
                    changed = true;
                } else
                    ++it;
        };
        const auto unite = [&](std::set<std::string> &mine,
                               const std::set<std::string> &th) {
            for (const std::string &r : th)
                changed |= mine.insert(r).second;
        };
        intersect(heldMust, pred.heldMust);
        unite(heldMay, pred.heldMay);
        intersect(relMust, pred.relMust);
        unite(relMay, pred.relMay);
        return changed;
    }
};

// ---------------------------------------------------------------
// The taint value and the two-mode interpreter
// ---------------------------------------------------------------

/** Abstract taint of one variable (or expression): an optional
 *  concrete taint (a real source reached it) plus, in build mode,
 *  symbolic hop paths from each parameter slot that reaches it. */
struct TaintVal
{
    std::optional<ConcreteTaint> concrete;
    std::map<std::size_t, std::vector<FlowHop>> sym;

    bool empty() const { return !concrete && sym.empty(); }
};

/**
 * One interpreter, two modes, so the hop vocabulary and evaluation
 * order can never diverge between summary construction and
 * reporting:
 *
 *  Build  — parameters are seeded symbolically; return statements
 *           and sink calls fill the function's summary slots
 *           (fill-once, so the SCC fixpoint is monotone);
 *  Report — only concrete taints propagate; every sink reached —
 *           directly or through a callee's paramSinks — is handed
 *           to the emit callback.
 */
class Interp
{
  public:
    enum class Mode
    {
        Build,
        Report,
    };

    Interp(const std::vector<FileModel> &files,
           const CallGraph &graph, const SummarySet &read)
        : files_(files), graph_(graph), read_(read)
    {
        sanitizers_.reserve(files.size());
        for (const FileModel &f : files)
            sanitizers_.push_back(collectFlowSanitizers(f.lexed));
    }

    /** Interpret one function. In Build mode `out` receives summary
     *  fills and `summaryChanged` reports whether any slot was
     *  filled this run; in Report mode `emit` receives every
     *  concrete flow. */
    void runFunction(FunctionRef ref, Mode mode,
                     FunctionSummary *out, bool *summaryChanged,
                     const std::function<void(SinkEvent)> *emit)
    {
        const FileModel &file = files_[ref.file];
        const FunctionModel &fn = file.functions[ref.fn];
        std::map<std::string, TaintVal> vars;
        if (mode == Mode::Build)
            for (std::size_t p = 0; p < fn.params.size(); ++p)
                if (!fn.params[p].empty())
                    vars[fn.params[p]].sym[p] = {};

        bool changed = true;
        int guard = 0;
        while (changed && guard++ < 64) {
            changed = false;
            for (const Statement &stmt : fn.stmts) {
                if ((stmt.kind == Statement::Kind::Decl ||
                     stmt.kind == Statement::Kind::Assign) &&
                    !stmt.target.empty() &&
                    !isLedgerWhitelistedField(stmt.target))
                    changed |= processAssign(ref, fn, stmt, vars);

                if (stmt.kind == Statement::Kind::Return &&
                    mode == Mode::Build)
                    processReturn(ref, fn, stmt, vars, out,
                                  summaryChanged, changed);

                for (const CallSite &call : stmt.calls)
                    processCall(ref, fn, stmt, call, vars, mode,
                                out, summaryChanged, emit, changed);
            }
        }
    }

  private:
    const std::vector<FileModel> &files_;
    const CallGraph &graph_;
    const SummarySet &read_;
    std::vector<std::vector<FlowSanitizer>> sanitizers_;

    FlowHop returnedByHop(const FileModel &file,
                          const CallSite &call) const
    {
        return {file.path, call.line, call.column,
                "tainted value returned by '" + call.callee +
                    "()'"};
    }

    FlowHop bridgeHop(const FileModel &file, const CallSite &call,
                      std::size_t argIndex,
                      const std::string &param) const
    {
        return {file.path, call.line, call.column,
                "argument " + std::to_string(argIndex + 1) +
                    " of '" + call.callee +
                    "()' taints parameter '" + param + "'"};
    }

    /**
     * Taint of the expression [begin, end): the earliest (by token
     * position) of a direct source, a tainted variable mention, or
     * a call whose return is tainted — per slot, concrete and
     * symbolic alike. Calls compose the callee's summary: its
     * concrete returnTaint directly, its paramToReturn entries by
     * recursively evaluating the feeding argument (a strictly
     * smaller token range, so the recursion terminates). Sanitized
     * sources don't count.
     */
    TaintVal evalExpr(std::size_t fi,
                      const std::map<std::string, TaintVal> &vars,
                      std::size_t begin, std::size_t end,
                      const std::vector<CallSite> &calls)
    {
        const FileModel &file = files_[fi];
        const auto &toks = file.lexed.tokens;
        std::optional<ConcreteTaint> best;
        std::size_t bestPos = 0;
        std::map<std::size_t,
                 std::pair<std::size_t, std::vector<FlowHop>>>
            symBest;

        const auto considerConcrete = [&](std::size_t pos,
                                          ConcreteTaint t) {
            if (!best || pos < bestPos) {
                best = std::move(t);
                bestPos = pos;
            }
        };
        const auto considerSym = [&](std::size_t slot,
                                     std::size_t pos,
                                     std::vector<FlowHop> hops) {
            const auto it = symBest.find(slot);
            if (it == symBest.end() || pos < it->second.first)
                symBest[slot] = {pos, std::move(hops)};
        };

        for (const TaintSourceHit &hit :
             scanTaintSources(toks, begin, end)) {
            const int line = toks[hit.tok].line;
            if (flowSanitizedAt(sanitizers_[fi], line, hit.rule))
                continue;
            ConcreteTaint t;
            t.rule = std::string(hit.rule);
            t.path.push_back({file.path, line,
                              toks[hit.tok].column,
                              "source: " + hit.what});
            considerConcrete(hit.tok, std::move(t));
        }

        for (std::size_t j = begin; j < end && j < toks.size();
             ++j) {
            if (toks[j].kind != TokenKind::Identifier)
                continue;
            const auto it = vars.find(toks[j].text);
            if (it == vars.end())
                continue;
            if (it->second.concrete)
                considerConcrete(j, *it->second.concrete);
            for (const auto &[slot, hops] : it->second.sym)
                considerSym(slot, j, hops);
        }

        for (const CallSite &call : calls) {
            if (call.begin < begin || call.end > end)
                continue;
            for (const FunctionRef def : graph_.resolve(call)) {
                const TaintSummary &ts = read_.of(def).taint;
                const FunctionModel &dfn =
                    files_[def.file].functions[def.fn];
                bool used = false;
                if (ts.returnTaint) {
                    ConcreteTaint t = *ts.returnTaint;
                    t.path.push_back(returnedByHop(file, call));
                    considerConcrete(call.begin, std::move(t));
                    used = true;
                }
                for (const auto &[p, retHops] : ts.paramToReturn) {
                    if (p >= call.args.size() ||
                        p >= dfn.params.size() ||
                        dfn.params[p].empty())
                        continue;
                    const TaintVal av =
                        evalExpr(fi, vars, call.args[p].first,
                                 call.args[p].second, calls);
                    if (av.empty())
                        continue;
                    const FlowHop bridge =
                        bridgeHop(file, call, p, dfn.params[p]);
                    if (av.concrete) {
                        ConcreteTaint t = *av.concrete;
                        t.path.push_back(bridge);
                        t.path.insert(t.path.end(),
                                      retHops.begin(),
                                      retHops.end());
                        t.path.push_back(returnedByHop(file, call));
                        considerConcrete(call.begin, std::move(t));
                        used = true;
                    }
                    for (const auto &[slot, argHops] : av.sym) {
                        std::vector<FlowHop> hops = argHops;
                        hops.push_back(bridge);
                        hops.insert(hops.end(), retHops.begin(),
                                    retHops.end());
                        hops.push_back(returnedByHop(file, call));
                        considerSym(slot, call.begin,
                                    std::move(hops));
                        used = true;
                    }
                }
                if (used)
                    break; // one matching definition is enough
            }
        }

        TaintVal out;
        out.concrete = std::move(best);
        for (auto &[slot, pr] : symBest)
            out.sym.emplace(slot, std::move(pr.second));
        return out;
    }

    /** `target = expr` / `Type target = expr`: first writer wins,
     *  per slot — a variable's concrete taint and each symbolic
     *  slot are set at most once. Returns true on any new fill. */
    bool processAssign(FunctionRef ref, const FunctionModel &,
                       const Statement &stmt,
                       std::map<std::string, TaintVal> &vars)
    {
        const FileModel &file = files_[ref.file];
        const auto needs = [&](const std::string &name,
                               const TaintVal &rhs) {
            const auto it = vars.find(name);
            if (it == vars.end())
                return !rhs.empty();
            if (rhs.concrete && !it->second.concrete)
                return true;
            for (const auto &[slot, hops] : rhs.sym)
                if (it->second.sym.count(slot) == 0)
                    return true;
            return false;
        };

        const bool wantTarget =
            vars.find(stmt.target) == vars.end();
        const bool wantBase = !stmt.base.empty() &&
                              vars.find(stmt.base) == vars.end();
        if (!wantTarget && !wantBase)
            return false;
        const TaintVal rhs =
            evalExpr(ref.file, vars, stmt.expr.first,
                     stmt.expr.second, stmt.calls);
        if (rhs.empty())
            return false;

        bool changed = false;
        const auto fill = [&](const std::string &name,
                              bool asMember) {
            if (!needs(name, rhs))
                return;
            FlowHop hop{file.path, stmt.line, stmt.column,
                        asMember ? "member of '" + name +
                                       "' assigned from tainted "
                                       "expression"
                                 : "'" + stmt.target +
                                       "' assigned from tainted "
                                       "expression"};
            TaintVal add;
            if (rhs.concrete &&
                !flowSanitizedAt(sanitizers_[ref.file], stmt.line,
                                 rhs.concrete->rule)) {
                add.concrete = *rhs.concrete;
                add.concrete->path.push_back(hop);
            }
            for (const auto &[slot, hops] : rhs.sym) {
                std::vector<FlowHop> h = hops;
                h.push_back(hop);
                add.sym.emplace(slot, std::move(h));
            }
            if (add.empty())
                return;
            TaintVal &tv = vars[name];
            if (add.concrete && !tv.concrete) {
                tv.concrete = std::move(add.concrete);
                changed = true;
            }
            for (auto &[slot, hops] : add.sym)
                if (tv.sym.emplace(slot, std::move(hops)).second)
                    changed = true;
        };
        if (wantTarget)
            fill(stmt.target, false);
        if (wantBase)
            fill(stmt.base, true);
        return changed;
    }

    void processReturn(FunctionRef ref, const FunctionModel &fn,
                       const Statement &stmt,
                       const std::map<std::string, TaintVal> &vars,
                       FunctionSummary *out, bool *summaryChanged,
                       bool &changed)
    {
        TaintSummary &ts = out->taint;
        const bool wantConcrete = !ts.returnTaint;
        const TaintVal v =
            evalExpr(ref.file, vars, stmt.expr.first,
                     stmt.expr.second, stmt.calls);
        if (v.empty())
            return;
        const FileModel &file = files_[ref.file];
        const FlowHop rhop{file.path, stmt.line, stmt.column,
                           "returned from '" + fn.name + "()'"};
        if (wantConcrete && v.concrete &&
            !flowSanitizedAt(sanitizers_[ref.file], stmt.line,
                             v.concrete->rule)) {
            ConcreteTaint t = *v.concrete;
            t.path.push_back(rhop);
            ts.returnTaint = std::move(t);
            changed = true;
            if (summaryChanged != nullptr)
                *summaryChanged = true;
        }
        for (const auto &[slot, hops] : v.sym) {
            if (ts.paramToReturn.count(slot) != 0)
                continue;
            std::vector<FlowHop> h = hops;
            h.push_back(rhop);
            ts.paramToReturn.emplace(slot, std::move(h));
            changed = true;
            if (summaryChanged != nullptr)
                *summaryChanged = true;
        }
    }

    static bool hasParamSink(const TaintSummary &ts,
                             std::size_t param,
                             const ParamSinkFlow &like)
    {
        for (const ParamSinkFlow &f : ts.paramSinks)
            if (f.param == param &&
                f.sinkCallee == like.sinkCallee &&
                f.sinkFile == like.sinkFile &&
                f.sinkLine == like.sinkLine &&
                f.sinkColumn == like.sinkColumn &&
                f.sinkArg == like.sinkArg)
                return true;
        return false;
    }

    void processCall(FunctionRef ref, const FunctionModel &,
                     const Statement &stmt, const CallSite &call,
                     const std::map<std::string, TaintVal> &vars,
                     Mode mode, FunctionSummary *out,
                     bool *summaryChanged,
                     const std::function<void(SinkEvent)> *emit,
                     bool &changed)
    {
        const FileModel &file = files_[ref.file];
        for (std::size_t ai = 0; ai < call.args.size(); ++ai) {
            const TaintVal av =
                evalExpr(ref.file, vars, call.args[ai].first,
                         call.args[ai].second, stmt.calls);
            if (av.empty())
                continue;

            if (isTaintSinkName(call.callee)) {
                const FlowHop sinkHop{
                    file.path, call.line, call.column,
                    "sink: argument " + std::to_string(ai + 1) +
                        " of '" + call.callee + "()'"};
                if (mode == Mode::Report && av.concrete &&
                    emit != nullptr) {
                    SinkEvent ev;
                    ev.rule = av.concrete->rule;
                    ev.path = av.concrete->path;
                    ev.path.push_back(sinkHop);
                    ev.sinkFile = file.path;
                    ev.sinkLine = call.line;
                    ev.sinkColumn = call.column;
                    ev.sinkCallee = call.callee;
                    (*emit)(std::move(ev));
                }
                if (mode == Mode::Build)
                    for (const auto &[slot, hops] : av.sym) {
                        ParamSinkFlow f;
                        f.param = slot;
                        f.sinkCallee = call.callee;
                        f.sinkArg = ai;
                        f.sinkFile = file.path;
                        f.sinkLine = call.line;
                        f.sinkColumn = call.column;
                        if (hasParamSink(out->taint, slot, f))
                            continue;
                        f.hops = hops;
                        f.hops.push_back(sinkHop);
                        out->taint.paramSinks.push_back(
                            std::move(f));
                        changed = true;
                        if (summaryChanged != nullptr)
                            *summaryChanged = true;
                    }
                continue;
            }

            // Non-sink call: compose the callee's own param→sink
            // flows, so chains through any number of helpers are
            // seen without inlining.
            for (const FunctionRef def : graph_.resolve(call)) {
                const FunctionModel &dfn =
                    files_[def.file].functions[def.fn];
                if (ai >= dfn.params.size() ||
                    dfn.params[ai].empty())
                    continue;
                // Snapshot: on a recursive call `def` aliases the
                // summary being built, and the Build branch below
                // appends to the same vector.
                const std::vector<ParamSinkFlow> flows =
                    read_.of(def).taint.paramSinks;
                for (const ParamSinkFlow &pf : flows) {
                    if (pf.param != ai)
                        continue;
                    const FlowHop bridge = bridgeHop(
                        file, call, ai, dfn.params[ai]);
                    if (mode == Mode::Report && av.concrete &&
                        emit != nullptr) {
                        SinkEvent ev;
                        ev.rule = av.concrete->rule;
                        ev.path = av.concrete->path;
                        ev.path.push_back(bridge);
                        ev.path.insert(ev.path.end(),
                                       pf.hops.begin(),
                                       pf.hops.end());
                        ev.sinkFile = pf.sinkFile;
                        ev.sinkLine = pf.sinkLine;
                        ev.sinkColumn = pf.sinkColumn;
                        ev.sinkCallee = pf.sinkCallee;
                        (*emit)(std::move(ev));
                    }
                    if (mode == Mode::Build)
                        for (const auto &[slot, hops] : av.sym) {
                            ParamSinkFlow f;
                            f.param = slot;
                            f.sinkCallee = pf.sinkCallee;
                            f.sinkArg = pf.sinkArg;
                            f.sinkFile = pf.sinkFile;
                            f.sinkLine = pf.sinkLine;
                            f.sinkColumn = pf.sinkColumn;
                            if (hasParamSink(out->taint, slot, f))
                                continue;
                            f.hops = hops;
                            f.hops.push_back(bridge);
                            f.hops.insert(f.hops.end(),
                                          pf.hops.begin(),
                                          pf.hops.end());
                            out->taint.paramSinks.push_back(
                                std::move(f));
                            changed = true;
                            if (summaryChanged != nullptr)
                                *summaryChanged = true;
                        }
                }
            }
        }
    }
};

// ---------------------------------------------------------------
// Lock effects
// ---------------------------------------------------------------

class LockEffectBuilder
{
  public:
    LockEffectBuilder(const std::vector<FileModel> &files,
                      const CallGraph &graph)
        : files_(files), graph_(graph)
    {
        collectDeclTypes();
    }

    /** Extract the mode-independent lock facts of one function
     *  (done once; only the Call events' meanings change across
     *  fixpoint passes). */
    LockLocal extract(FunctionRef ref)
    {
        LockLocal out;
        const FileModel &file = files_[ref.file];
        const FunctionModel &fn = file.functions[ref.fn];
        if (fn.bodyEnd <= fn.bodyBegin)
            return out;
        const auto &toks = file.lexed.tokens;
        out.cfg = buildCfg(file, fn);
        out.events.resize(out.cfg.blocks.size());

        std::map<std::string, std::vector<std::string>> guardVars;
        for (std::size_t b = 0; b < out.cfg.blocks.size(); ++b)
            for (const CfgStmt &st : out.cfg.blocks[b].stmts)
                extractFromStmt(toks, st.begin, st.end, guardVars,
                                out, b);

        // Call events, injected at the callee token and merged
        // into token order with the lock events of the same block.
        for (const Statement &stmt : fn.stmts)
            for (const CallSite &call : stmt.calls)
                placeCall(out, call);
        for (auto &evs : out.events)
            std::stable_sort(evs.begin(), evs.end(),
                             [](const LockEv &a, const LockEv &b) {
                                 return a.token < b.token;
                             });
        return out;
    }

    /** Compute the net effects of one function under the current
     *  callee summaries. */
    LockEffects compute(FunctionRef ref, const LockLocal &local,
                        const SummarySet &sums)
    {
        LockEffects out;
        out.localLocks = local.localLocks;
        out.localUnlocks = local.localUnlocks;
        if (local.events.empty())
            return out;
        const std::size_t n = local.cfg.blocks.size();

        std::vector<std::vector<std::size_t>> preds(n);
        for (std::size_t b = 0; b < n; ++b)
            for (const std::size_t s : local.cfg.blocks[b].succs)
                preds[s].push_back(b);

        std::vector<EffState> in(n);
        std::vector<EffState> outState(n);
        in[Cfg::kEntry].reached = true;
        bool changed = true;
        while (changed) {
            changed = false;
            for (std::size_t b = 0; b < n; ++b) {
                for (const std::size_t p : preds[b])
                    changed |= in[b].meet(outState[p]);
                if (!in[b].reached)
                    continue;
                EffState s = in[b];
                for (const LockEv &ev : local.events[b])
                    apply(s, ev, sums);
                if (!(s == outState[b])) {
                    outState[b] = std::move(s);
                    changed = true;
                }
            }
        }

        const EffState &exit = in[Cfg::kExit];
        if (!exit.reached)
            return out;
        const auto keep = [&](const std::set<std::string> &src,
                              std::set<std::string> &dst) {
            for (const std::string &r : src)
                if (local.guardResources.count(r) == 0)
                    dst.insert(r);
        };
        keep(exit.heldMust, out.mustAcquire);
        keep(exit.heldMay, out.mayAcquire);
        keep(exit.relMust, out.mustRelease);
        keep(exit.relMay, out.mayRelease);
        buildAcquireChains(ref, local, sums, out);
        return out;
    }

    const LockEffects *effectsFor(const CallSite &call,
                                  const SummarySet &sums) const
    {
        for (const FunctionRef def : graph_.resolve(call)) {
            const LockEffects &e = sums.of(def).locks;
            if (e.hasNetEffect())
                return &e;
        }
        return nullptr;
    }

  private:
    const std::vector<FileModel> &files_;
    const CallGraph &graph_;
    /** name → last type-word of its declaration, over all files
     *  (same heuristic the concurrency pass uses to classify
     *  guard-variable receivers). */
    std::map<std::string, std::string> declType_;

    void collectDeclTypes()
    {
        for (const FileModel &file : files_) {
            const auto &toks = file.lexed.tokens;
            for (std::size_t j = 0; j + 1 < toks.size(); ++j) {
                if (toks[j].kind != TokenKind::Identifier)
                    continue;
                if (j > 0 && (isPunct(toks[j - 1], ".") ||
                              isPunct(toks[j - 1], "->")))
                    continue;
                std::size_t k = j + 1;
                if (isPunct(toks[k], "<")) {
                    const std::size_t past =
                        skipAngles(toks, k, toks.size());
                    if (past == k)
                        continue;
                    k = past;
                }
                if (k >= toks.size() ||
                    toks[k].kind != TokenKind::Identifier)
                    continue;
                if (k + 1 >= toks.size())
                    continue;
                const Token &after = toks[k + 1];
                if (!isPunct(after, ";") && !isPunct(after, "=") &&
                    !isPunct(after, "{") && !isPunct(after, "(") &&
                    !isPunct(after, ","))
                    continue;
                declType_[toks[k].text] = toks[j].text;
            }
        }
    }

    void extractFromStmt(
        const std::vector<Token> &toks, std::size_t b,
        std::size_t e,
        std::map<std::string, std::vector<std::string>> &guardVars,
        LockLocal &out, std::size_t block)
    {
        for (std::size_t j = b; j < e; ++j) {
            const Token &t = toks[j];
            // RAII guard declaration.
            if (t.kind == TokenKind::Identifier &&
                contains(kGuardTypes, t.text)) {
                std::size_t k = j + 1;
                if (k < e && isPunct(toks[k], "<")) {
                    const std::size_t past = skipAngles(toks, k, e);
                    if (past == k)
                        continue;
                    k = past;
                }
                if (k >= e ||
                    toks[k].kind != TokenKind::Identifier)
                    continue;
                const std::string var = toks[k].text;
                if (k + 1 >= e || (!isPunct(toks[k + 1], "(") &&
                                   !isPunct(toks[k + 1], "{")))
                    continue;
                const bool paren = isPunct(toks[k + 1], "(");
                const std::size_t close =
                    paren ? matchParen(toks, k + 1, e)
                          : matchBrace(toks, k + 1, e);
                std::vector<std::string> resources;
                std::size_t argStart = k + 2;
                for (std::size_t a = argStart; a <= close; ++a) {
                    if (a == close || (isPunct(toks[a], ",") &&
                                       a > argStart)) {
                        std::size_t s = argStart;
                        while (s < a && (isPunct(toks[s], "*") ||
                                         isPunct(toks[s], "&")))
                            ++s;
                        std::string res;
                        while (s < a) {
                            if (toks[s].kind ==
                                TokenKind::Identifier) {
                                if (!res.empty())
                                    res += '.';
                                res += toks[s].text;
                                if (s + 2 < a &&
                                    (isPunct(toks[s + 1], ".") ||
                                     isPunct(toks[s + 1], "->") ||
                                     isPunct(toks[s + 1], "::"))) {
                                    s += 2;
                                    continue;
                                }
                            }
                            break;
                        }
                        if (!res.empty() &&
                            res.find("defer_lock") ==
                                std::string::npos)
                            resources.push_back(res);
                        argStart = a + 1;
                    }
                }
                guardVars[var] = resources;
                if (!resources.empty()) {
                    for (const std::string &r : resources)
                        out.guardResources.insert(r);
                    LockEv ev;
                    ev.kind = LockEv::Kind::GuardAcquire;
                    ev.resources = resources;
                    ev.token = j;
                    ev.line = t.line;
                    ev.column = t.column;
                    out.events[block].push_back(std::move(ev));
                }
                j = close;
                continue;
            }
            // Member lock/unlock.
            if ((isPunct(t, ".") || isPunct(t, "->")) &&
                j + 2 < e &&
                toks[j + 1].kind == TokenKind::Identifier &&
                isPunct(toks[j + 2], "(")) {
                const std::string &method = toks[j + 1].text;
                if (method != "lock" && method != "unlock")
                    continue;
                const std::string recv = receiverChain(toks, j);
                if (recv.empty())
                    continue;
                LockEv ev;
                ev.token = j + 1;
                ev.line = toks[j + 1].line;
                ev.column = toks[j + 1].column;
                const auto guard = guardVars.find(recv);
                const auto type =
                    declType_.find(lastComponent(recv));
                const bool isGuardVar =
                    guard != guardVars.end() ||
                    (type != declType_.end() &&
                     contains(kGuardTypes, type->second));
                if (isGuardVar) {
                    if (guard == guardVars.end() ||
                        guard->second.empty())
                        continue; // resources unknown
                    ev.resources = guard->second;
                    ev.kind = method == "lock"
                                  ? LockEv::Kind::GuardRelock
                                  : LockEv::Kind::GuardRelease;
                } else {
                    ev.resources = {recv};
                    if (method == "lock") {
                        ev.kind = LockEv::Kind::RawLock;
                        out.localLocks.insert(recv);
                        out.firstRawLock.try_emplace(
                            recv, LSite{ev.line, ev.column});
                    } else {
                        ev.kind = LockEv::Kind::RawUnlock;
                        out.localUnlocks.insert(recv);
                    }
                }
                out.events[block].push_back(std::move(ev));
            }
        }
    }

    void placeCall(LockLocal &out, const CallSite &call)
    {
        for (std::size_t b = 0; b < out.cfg.blocks.size(); ++b)
            for (const CfgStmt &st : out.cfg.blocks[b].stmts)
                if (call.begin >= st.begin && call.begin < st.end) {
                    LockEv ev;
                    ev.kind = LockEv::Kind::Call;
                    ev.call = &call;
                    ev.token = call.begin;
                    ev.line = call.line;
                    ev.column = call.column;
                    out.events[b].push_back(std::move(ev));
                    return;
                }
    }

    void apply(EffState &s, const LockEv &ev,
               const SummarySet &sums) const
    {
        switch (ev.kind) {
        case LockEv::Kind::GuardAcquire:
        case LockEv::Kind::GuardRelock:
        case LockEv::Kind::RawLock:
            for (const std::string &r : ev.resources) {
                s.heldMust.insert(r);
                s.heldMay.insert(r);
            }
            break;
        case LockEv::Kind::GuardRelease:
        case LockEv::Kind::RawUnlock:
            for (const std::string &r : ev.resources) {
                if (s.heldMay.count(r) != 0) {
                    s.heldMust.erase(r);
                    s.heldMay.erase(r);
                } else {
                    // Releases a lock the caller held at entry.
                    s.relMust.insert(r);
                    s.relMay.insert(r);
                }
            }
            break;
        case LockEv::Kind::Call: {
            const LockEffects *eff = effectsFor(*ev.call, sums);
            if (eff == nullptr)
                break;
            for (const std::string &r : eff->mustRelease) {
                if (s.heldMay.count(r) != 0) {
                    s.heldMust.erase(r);
                    s.heldMay.erase(r);
                } else {
                    s.relMust.insert(r);
                    s.relMay.insert(r);
                }
            }
            for (const std::string &r : eff->mayRelease) {
                if (eff->mustRelease.count(r) != 0)
                    continue;
                s.heldMust.erase(r);
                if (s.heldMay.count(r) == 0)
                    s.relMay.insert(r);
            }
            for (const std::string &r : eff->mustAcquire) {
                s.heldMust.insert(r);
                s.heldMay.insert(r);
            }
            for (const std::string &r : eff->mayAcquire)
                if (eff->mustAcquire.count(r) == 0)
                    s.heldMay.insert(r);
            break;
        }
        }
    }

    /** Explain each net acquisition: the local raw-lock site, or
     *  the first call (block/token order) that bubbles it up, with
     *  the callee's own chain prepended (capped to keep paths
     *  readable). */
    void buildAcquireChains(FunctionRef ref,
                            const LockLocal &local,
                            const SummarySet &sums,
                            LockEffects &out) const
    {
        const FileModel &file = files_[ref.file];
        for (const std::string &r : out.mayAcquire) {
            if (const auto site = local.firstRawLock.find(r);
                site != local.firstRawLock.end()) {
                out.acquireChain[r] = {
                    {file.path, site->second.line,
                     site->second.column,
                     "raw lock acquired here"}};
                continue;
            }
            for (std::size_t b = 0;
                 b < local.events.size() &&
                 out.acquireChain.count(r) == 0;
                 ++b)
                for (const LockEv &ev : local.events[b]) {
                    if (ev.kind != LockEv::Kind::Call)
                        continue;
                    const LockEffects *eff =
                        effectsFor(*ev.call, sums);
                    if (eff == nullptr ||
                        (eff->mustAcquire.count(r) == 0 &&
                         eff->mayAcquire.count(r) == 0))
                        continue;
                    std::vector<FlowHop> chain;
                    if (const auto it = eff->acquireChain.find(r);
                        it != eff->acquireChain.end())
                        chain = it->second;
                    chain.push_back(
                        {file.path, ev.line, ev.column,
                         "call to '" + ev.call->callee +
                             "()' leaves '" + r + "' locked"});
                    if (chain.size() > 6)
                        chain.erase(chain.begin(),
                                    chain.end() - 6);
                    out.acquireChain[r] = std::move(chain);
                    break;
                }
        }
    }
};

// ---------------------------------------------------------------
// Tarjan SCC (iterative) over the function call graph
// ---------------------------------------------------------------

std::vector<std::vector<std::size_t>>
tarjanSccs(const std::vector<std::vector<std::size_t>> &adj)
{
    const std::size_t n = adj.size();
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::vector<std::size_t> index(n, kNone);
    std::vector<std::size_t> low(n, 0);
    std::vector<bool> onStack(n, false);
    std::vector<std::size_t> stack;
    std::vector<std::vector<std::size_t>> sccs;
    std::size_t counter = 0;

    struct Frame
    {
        std::size_t v;
        std::size_t child;
    };
    std::vector<Frame> frames;
    for (std::size_t root = 0; root < n; ++root) {
        if (index[root] != kNone)
            continue;
        frames.push_back({root, 0});
        index[root] = low[root] = counter++;
        stack.push_back(root);
        onStack[root] = true;
        while (!frames.empty()) {
            Frame &f = frames.back();
            if (f.child < adj[f.v].size()) {
                const std::size_t w = adj[f.v][f.child++];
                if (index[w] == kNone) {
                    index[w] = low[w] = counter++;
                    stack.push_back(w);
                    onStack[w] = true;
                    frames.push_back({w, 0});
                } else if (onStack[w]) {
                    low[f.v] = std::min(low[f.v], index[w]);
                }
                continue;
            }
            // All children visited: pop.
            const std::size_t v = f.v;
            frames.pop_back();
            if (!frames.empty())
                low[frames.back().v] =
                    std::min(low[frames.back().v], low[v]);
            if (low[v] == index[v]) {
                std::vector<std::size_t> scc;
                while (true) {
                    const std::size_t w = stack.back();
                    stack.pop_back();
                    onStack[w] = false;
                    scc.push_back(w);
                    if (w == v)
                        break;
                }
                std::sort(scc.begin(), scc.end());
                sccs.push_back(std::move(scc));
            }
        }
    }
    return sccs;
}

bool
lockEffectsDiffer(const LockEffects &a, const LockEffects &b)
{
    return a.mustAcquire != b.mustAcquire ||
           a.mayAcquire != b.mayAcquire ||
           a.mustRelease != b.mustRelease ||
           a.mayRelease != b.mayRelease;
}

} // namespace

// ---------------------------------------------------------------
// Shared taint vocabulary
// ---------------------------------------------------------------

bool
isTaintSinkName(std::string_view name)
{
    for (const std::string_view s : kSinkNames)
        if (name == s)
            return true;
    return false;
}

bool
isLedgerWhitelistedField(std::string_view name)
{
    for (const std::string_view s : kLedgerFieldWhitelist)
        if (name == s)
            return true;
    return false;
}

std::string_view
tokenRuleAliasFor(std::string_view flowRule)
{
    if (flowRule == "flow-wallclock")
        return "no-wallclock";
    if (flowRule == "flow-rng")
        return "no-ambient-rng";
    if (flowRule == "flow-ptr")
        return "no-pointer-hash";
    return {};
}

std::vector<TaintSourceHit>
scanTaintSources(const std::vector<Token> &toks, std::size_t begin,
                 std::size_t end)
{
    std::vector<TaintSourceHit> hits;
    const auto next = [&](std::size_t j) -> const Token * {
        return j + 1 < end ? &toks[j + 1] : nullptr;
    };
    for (std::size_t j = begin; j < end && j < toks.size(); ++j) {
        const Token &t = toks[j];
        if (t.kind != TokenKind::Identifier)
            continue;
        const Token *n = next(j);
        if (idIn(t, clockTypeNames())) {
            hits.push_back(
                {j, "flow-wallclock", "host clock '" + t.text + "'"});
            continue;
        }
        if (idIn(t, hostTimeCallNames()) && n && isPunct(*n, "(")) {
            hits.push_back({j, "flow-wallclock",
                            "host time function '" + t.text + "()'"});
            continue;
        }
        if (t.text == "random_device" ||
            t.text == "default_random_engine") {
            hits.push_back(
                {j, "flow-rng", "ambient RNG '" + t.text + "'"});
            continue;
        }
        if ((t.text == "rand" || t.text == "srand" ||
             t.text == "rand_r" || t.text == "drand48") &&
            n && isPunct(*n, "(")) {
            hits.push_back(
                {j, "flow-rng", "ambient RNG '" + t.text + "()'"});
            continue;
        }
        if ((t.text == "getenv" || t.text == "secure_getenv") && n &&
            isPunct(*n, "(")) {
            hits.push_back({j, "flow-env",
                            "environment read '" + t.text + "()'"});
            continue;
        }
        if (t.text == "reinterpret_cast" && n && isPunct(*n, "<") &&
            laundersPointer(toks, j + 1)) {
            hits.push_back({j, "flow-ptr",
                            "pointer-to-integer cast "
                            "'reinterpret_cast'"});
            continue;
        }
        if (t.text == "get_id" && n && isPunct(*n, "(")) {
            hits.push_back(
                {j, "flow-threadid", "thread id 'get_id()'"});
            continue;
        }
        if (t.text == "thread" && n && isPunct(*n, "::") &&
            j + 2 < end && toks[j + 2].kind ==
                TokenKind::Identifier &&
            toks[j + 2].text == "id") {
            hits.push_back(
                {j, "flow-threadid", "thread id 'thread::id'"});
            continue;
        }
    }
    return hits;
}

std::vector<FlowSanitizer>
collectFlowSanitizers(const LexedFile &lexed)
{
    std::vector<FlowSanitizer> out;
    for (const Pragma &p : lexed.pragmas) {
        if (p.malformed)
            continue;
        for (const std::string &rule : p.rules) {
            if (p.flow) {
                if (isFlowRuleName(rule))
                    out.push_back({p.line, p.endLine, rule});
                continue;
            }
            // An allow(<token-rule>) on the source site also
            // sanitizes the corresponding flow rule there.
            for (const std::string_view fr : flowRuleNames())
                if (tokenRuleAliasFor(fr) == rule)
                    out.push_back(
                        {p.line, p.endLine, std::string(fr)});
        }
    }
    return out;
}

bool
flowSanitizedAt(const std::vector<FlowSanitizer> &sanitizers,
                int line, std::string_view rule)
{
    for (const FlowSanitizer &s : sanitizers)
        if (s.rule == rule && line >= s.line &&
            line <= s.endLine + 1)
            return true;
    return false;
}

// ---------------------------------------------------------------
// Summary computation
// ---------------------------------------------------------------

SummarySet
computeSummaries(const std::vector<FileModel> &files,
                 const CallGraph &graph)
{
    SummarySet out;
    out.byFile_.resize(files.size());
    std::vector<std::size_t> offset(files.size(), 0);
    std::size_t n = 0;
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        offset[fi] = n;
        n += files[fi].functions.size();
        out.byFile_[fi].resize(files[fi].functions.size());
    }
    std::vector<FunctionRef> refs(n);
    for (std::size_t fi = 0; fi < files.size(); ++fi)
        for (std::size_t gi = 0; gi < files[fi].functions.size();
             ++gi)
            refs[offset[fi] + gi] = {fi, gi};

    // Call-graph adjacency (call-site order, de-duplicated).
    std::vector<std::vector<std::size_t>> adj(n);
    for (std::size_t v = 0; v < n; ++v) {
        const FunctionRef ref = refs[v];
        std::set<std::size_t> seen;
        for (const Statement &stmt :
             files[ref.file].functions[ref.fn].stmts)
            for (const CallSite &call : stmt.calls)
                for (const FunctionRef def : graph.resolve(call)) {
                    const std::size_t w =
                        offset[def.file] + def.fn;
                    if (seen.insert(w).second)
                        adj[v].push_back(w);
                }
    }

    const std::vector<std::vector<std::size_t>> sccs =
        tarjanSccs(adj);

    Interp interp(files, graph, out);
    LockEffectBuilder lockBuilder(files, graph);
    std::vector<LockLocal> locals(n);
    for (std::size_t v = 0; v < n; ++v)
        locals[v] = lockBuilder.extract(refs[v]);

    SummaryStats &st = out.stats_;
    st.functions = n;
    // Tarjan emits SCCs callees-first, so one sweep in emission
    // order sees every callee summary before its callers — the
    // fixpoint is only needed inside a cycle.
    for (const std::vector<std::size_t> &scc : sccs) {
        ++st.sccs;
        st.largestScc = std::max(st.largestScc, scc.size());
        bool cyclic = scc.size() > 1;
        if (!cyclic)
            for (const std::size_t w : adj[scc[0]])
                cyclic |= w == scc[0];

        const auto runMember = [&](std::size_t v) {
            const FunctionRef ref = refs[v];
            FunctionSummary &sum =
                out.byFile_[ref.file][ref.fn];
            bool changed = false;
            interp.runFunction(ref, Interp::Mode::Build, &sum,
                               &changed, nullptr);
            LockEffects eff =
                lockBuilder.compute(ref, locals[v], out);
            if (lockEffectsDiffer(eff, sum.locks))
                changed = true;
            sum.locks = std::move(eff);
            return changed;
        };

        if (!cyclic) {
            runMember(scc[0]);
            continue;
        }
        const std::size_t cap = 3 + 2 * scc.size();
        std::size_t passes = 0;
        bool changed = true;
        while (changed && passes < cap) {
            ++passes;
            changed = false;
            for (const std::size_t v : scc)
                changed |= runMember(v);
        }
        st.fixpointPasses += passes > 0 ? passes - 1 : 0;
    }

    for (std::size_t v = 0; v < n; ++v) {
        const FunctionSummary &sum =
            out.byFile_[refs[v].file][refs[v].fn];
        if (sum.taint.returnTaint)
            ++st.returnTaints;
        st.paramReturnFlows += sum.taint.paramToReturn.size();
        st.paramSinkFlows += sum.taint.paramSinks.size();
        if (sum.locks.hasNetEffect())
            ++st.lockEffects;
    }
    return out;
}

void
forEachConcreteFlow(const std::vector<FileModel> &files,
                    const CallGraph &graph, const SummarySet &sums,
                    const std::function<void(SinkEvent)> &emit)
{
    Interp interp(files, graph, sums);
    for (std::size_t fi = 0; fi < files.size(); ++fi)
        for (std::size_t gi = 0; gi < files[fi].functions.size();
             ++gi)
            interp.runFunction({fi, gi}, Interp::Mode::Report,
                               nullptr, nullptr, &emit);
}

} // namespace netchar::lint
