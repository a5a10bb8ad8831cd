#include "lint/concurrency.hh"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>

#include "lint/cfg.hh"
#include "lint/summary.hh"
#include "lint/tokens.hh"

namespace netchar::lint
{

namespace
{

// ---------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------

struct ConcurrencyRule
{
    std::string_view name;
    Severity severity;
    std::string_view summary;
};

constexpr std::array<ConcurrencyRule, 5> kRules = {{
    {"race-shared-write", Severity::Error,
     "write to a mutable static or by-reference-captured object "
     "reachable from executor tasks with an empty lockset"},
    {"lock-leak", Severity::Error,
     "raw .lock() with no .unlock() on some path to the function "
     "exit (use lock_guard/scoped_lock/unique_lock)"},
    {"guard-discipline", Severity::Error,
     "double-lock or unlock-without-lock along some path"},
    {"atomic-mixed-access", Severity::Warning,
     "object accessed both atomically (.load/.store/atomic_ref) "
     "and through plain reads/writes"},
    {"flow-unchecked-error", Severity::Warning,
     "error-carrying bool return discarded in serve/journal code"},
}};

/** Executor task submission entry points (escape-set seeds). */
constexpr std::array<std::string_view, 2> kSubmitNames = {
    "forEach",
    "forEachCollect",
};

/** Member calls that read/write an object atomically. */
constexpr std::array<std::string_view, 10> kAtomicOps = {
    "load",
    "store",
    "exchange",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange_weak",
    "compare_exchange_strong",
};

/** Statement-leading keywords that are never a discarded call. */
constexpr std::array<std::string_view, 13> kStmtKeywords = {
    "return", "if",    "while",    "for",   "switch",
    "do",     "case",  "default",  "break", "continue",
    "throw",  "delete", "co_return",
};

// ---------------------------------------------------------------
// Lock events and the (must, may) state
// ---------------------------------------------------------------

struct LockEvent
{
    enum class Kind
    {
        GuardAcquire, ///< RAII guard declaration
        GuardRelease, ///< guard receiver `.unlock()`
        GuardRelock,  ///< guard receiver `.lock()`
        RawLock,
        RawUnlock,
        CallEffect, ///< callee with a net lock effect (summary.hh)
    };
    Kind kind = Kind::RawLock;
    std::vector<std::string> resources;
    std::size_t token = 0; ///< ordering within the statement
    int line = 0;
    int column = 0;
    /** CallEffect only: the callee's net effects and spelling. */
    const LockEffects *effects = nullptr;
    std::string callee;
};

struct WriteSite
{
    std::string name;
    std::size_t token = 0;
    int line = 0;
    int column = 0;
};

/** Per-block dataflow facts. The lattice element is a pair of
 *  resource sets: `must` (∩ at joins) and `may` (∪ at joins), plus
 *  the raw subset of `may` that feeds the leak check. */
struct LockState
{
    bool reached = false;
    std::set<std::string> must;
    std::set<std::string> may;
    std::set<std::string> rawMay;

    bool meet(const LockState &pred)
    {
        if (!pred.reached)
            return false;
        if (!reached) {
            *this = pred;
            return true;
        }
        bool changed = false;
        for (auto it = must.begin(); it != must.end();)
            if (pred.must.count(*it) == 0) {
                it = must.erase(it);
                changed = true;
            } else
                ++it;
        for (const std::string &r : pred.may)
            changed |= may.insert(r).second;
        for (const std::string &r : pred.rawMay)
            changed |= rawMay.insert(r).second;
        return changed;
    }

    void apply(const LockEvent &ev)
    {
        switch (ev.kind) {
        case LockEvent::Kind::GuardAcquire:
        case LockEvent::Kind::GuardRelock:
            for (const std::string &r : ev.resources) {
                must.insert(r);
                may.insert(r);
            }
            break;
        case LockEvent::Kind::GuardRelease:
            for (const std::string &r : ev.resources) {
                must.erase(r);
                may.erase(r);
            }
            break;
        case LockEvent::Kind::RawLock:
            for (const std::string &r : ev.resources) {
                must.insert(r);
                may.insert(r);
                rawMay.insert(r);
            }
            break;
        case LockEvent::Kind::RawUnlock:
            for (const std::string &r : ev.resources) {
                must.erase(r);
                may.erase(r);
                rawMay.erase(r);
            }
            break;
        case LockEvent::Kind::CallEffect:
            // A callee with a net lock effect acts like an inlined
            // raw lock/unlock sequence: releases first (a wrapper
            // that swaps locks releases before re-acquiring), then
            // acquisitions — which join the raw-may set so a lock
            // leaked through a helper is still caught at this
            // function's exit.
            for (const std::string &r : ev.effects->mustRelease) {
                must.erase(r);
                may.erase(r);
                rawMay.erase(r);
            }
            for (const std::string &r : ev.effects->mayRelease)
                if (ev.effects->mustRelease.count(r) == 0)
                    must.erase(r);
            for (const std::string &r : ev.effects->mustAcquire) {
                must.insert(r);
                may.insert(r);
                rawMay.insert(r);
            }
            for (const std::string &r : ev.effects->mayAcquire)
                if (ev.effects->mustAcquire.count(r) == 0) {
                    may.insert(r);
                    rawMay.insert(r);
                }
            break;
        }
    }
};

struct SharedStatic
{
    int line = 0;
    int column = 0;
};

struct Site
{
    int line = 0;
    int column = 0;
};

// ---------------------------------------------------------------
// The engine
// ---------------------------------------------------------------

class Engine
{
  public:
    Engine(const std::vector<FileModel> &files,
           const CallGraph &graph, const SummarySet *sums)
        : files_(files), graph_(graph), sums_(sums)
    {
    }

    ConcurrencyAnalysis run()
    {
        collectDeclTypes();
        collectStatics();
        computeEscapeSet();
        collectLockPairing();
        for (std::size_t fi = 0; fi < files_.size(); ++fi)
            for (std::size_t gi = 0;
                 gi < files_[fi].functions.size(); ++gi)
                analyzeFunction({fi, gi});
        reportMixedAccess();
        out_.escapedFunctions = escaped_.size();
        return std::move(out_);
    }

  private:
    const std::vector<FileModel> &files_;
    const CallGraph &graph_;
    const SummarySet *sums_;
    ConcurrencyAnalysis out_;
    std::set<std::string> emitted_;
    /** Per resource: functions that syntactically raw-lock /
     *  raw-unlock it (from the interprocedural summaries) — the
     *  basis for pairing wrapper acquire()/release() helpers. */
    std::map<std::string, std::set<FunctionRef>> rawLockers_;
    std::map<std::string, std::set<FunctionRef>> rawUnlockers_;

    /** name → last type-word of its declaration, over all files
     *  (later files win; files arrive sorted, so this is
     *  deterministic). Used to spot guard/atomic/mutex objects and
     *  to type member-call receivers. */
    std::map<std::string, std::string> declType_;
    /** Per file: mutable, non-atomic statics by name. */
    std::vector<std::map<std::string, SharedStatic>> statics_;
    /** Per file: object name → atomic access sites. */
    std::vector<std::map<std::string, std::vector<Site>>>
        atomicSites_;
    /** Per file: object name → plain single-identifier writes. */
    std::vector<std::map<std::string, std::vector<Site>>>
        plainWrites_;
    std::set<FunctionRef> escaped_;
    std::map<FunctionRef, FlowHop> escapeHop_;
    std::set<FunctionRef> seeds_;

    const FunctionModel &fnOf(FunctionRef r) const
    {
        return files_[r.file].functions[r.fn];
    }

    // -- finding plumbing ---------------------------------------

    bool suppressedAt(const FileModel &file, int line,
                      std::string_view rule) const
    {
        for (const Pragma &p : file.lexed.pragmas) {
            if (p.flow || p.malformed)
                continue;
            if (line < p.line || line > p.endLine + 1)
                continue;
            for (const std::string &r : p.rules)
                if (r == rule)
                    return true;
        }
        return false;
    }

    void emit(std::string_view rule, const FileModel &file,
              int line, int column, std::string message,
              std::vector<FlowHop> hops,
              const std::string &function,
              const std::set<std::string> &held)
    {
        std::string key = std::string(rule) + '|' + file.path +
                          '|' + std::to_string(line) + '|' +
                          std::to_string(column) + '|' + message;
        if (!emitted_.insert(std::move(key)).second)
            return;
        if (suppressedAt(file, line, rule)) {
            ++out_.suppressed;
            return;
        }
        Finding f;
        f.file = file.path;
        f.line = line;
        f.column = column;
        f.rule = std::string(rule);
        f.severity = concurrencyRuleSeverity(rule);
        f.message = std::move(message);
        f.path = std::move(hops);
        f.function = function;
        f.lockset.assign(held.begin(), held.end());
        out_.findings.push_back(std::move(f));
    }

    // -- vocabulary collection ----------------------------------

    /** Record `Type name` declaration pairs: identifier (last of a
     *  `::` chain), optional `<...>`, identifier, then one of
     *  `; = { ( ,`. Heuristic but deterministic; collisions keep
     *  the last writer in sorted file order. */
    void collectDeclTypes()
    {
        for (const FileModel &file : files_) {
            const auto &toks = file.lexed.tokens;
            for (std::size_t j = 0; j + 1 < toks.size(); ++j) {
                if (toks[j].kind != TokenKind::Identifier)
                    continue;
                if (j > 0 && (isPunct(toks[j - 1], ".") ||
                              isPunct(toks[j - 1], "->")))
                    continue; // member access, not a declaration
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

    /** Mutable, non-atomic `static` objects per file — the shared
     *  state the race rule protects. Const/constexpr/thread_local/
     *  mutex/atomic declarations and function declarations are not
     *  race targets. */
    void collectStatics()
    {
        statics_.resize(files_.size());
        atomicSites_.resize(files_.size());
        plainWrites_.resize(files_.size());
        for (std::size_t fi = 0; fi < files_.size(); ++fi) {
            const auto &toks = files_[fi].lexed.tokens;
            for (std::size_t j = 0; j < toks.size(); ++j) {
                if (toks[j].kind != TokenKind::Identifier ||
                    toks[j].text != "static")
                    continue;
                bool guarded = false;
                std::string name;
                int line = 0;
                int column = 0;
                bool isCall = false;
                for (std::size_t k = j + 1; k < toks.size(); ++k) {
                    const Token &t = toks[k];
                    if (t.kind == TokenKind::Identifier) {
                        if (t.text == "const" ||
                            t.text == "constexpr" ||
                            t.text == "constinit" ||
                            t.text == "thread_local" ||
                            t.text == "mutex" ||
                            t.text == "operator" ||
                            t.text.find("atomic") !=
                                std::string::npos) {
                            guarded = true;
                            break;
                        }
                        name = t.text;
                        line = t.line;
                        column = t.column;
                        continue;
                    }
                    if (isPunct(t, "<")) {
                        const std::size_t past =
                            skipAngles(toks, k, toks.size());
                        if (past == k)
                            break;
                        k = past - 1;
                        continue;
                    }
                    if (isPunct(t, "(")) {
                        isCall = true; // function or ctor-style
                        break;
                    }
                    if (isPunct(t, ";") || isPunct(t, "=") ||
                        isPunct(t, "{"))
                        break;
                    if (isPunct(t, "::") || isPunct(t, "&") ||
                        isPunct(t, "*") || isPunct(t, "["))
                        continue;
                    if (isPunct(t, "]"))
                        continue;
                    break;
                }
                if (!guarded && !isCall && !name.empty())
                    statics_[fi][name] = {line, column};
            }
        }
    }

    // -- escape set ---------------------------------------------

    bool isExecutorImplFile(const std::string &path) const
    {
        if (!pathInDir(path, "src/core"))
            return false;
        const std::size_t slash = path.rfind('/');
        const std::string base = slash == std::string::npos
                                     ? path
                                     : path.substr(slash + 1);
        return base.rfind("executor.", 0) == 0;
    }

    void computeEscapeSet()
    {
        std::vector<FunctionRef> work;
        for (std::size_t fi = 0; fi < files_.size(); ++fi) {
            const FileModel &file = files_[fi];
            const bool implFile = isExecutorImplFile(file.path);
            for (std::size_t gi = 0; gi < file.functions.size();
                 ++gi) {
                const FunctionRef ref{fi, gi};
                const FunctionModel &fn = file.functions[gi];
                if (implFile) {
                    escaped_.insert(ref);
                    escapeHop_[ref] = {file.path, fn.line,
                                       fn.column,
                                       "defined in the executor "
                                       "implementation (worker-"
                                       "thread entry universe)"};
                    work.push_back(ref);
                }
                for (const Statement &st : fn.stmts)
                    for (const CallSite &call : st.calls)
                        if (contains(kSubmitNames, call.callee)) {
                            seeds_.insert(ref);
                            if (escapeHop_.count(ref) == 0)
                                escapeHop_[ref] = {
                                    file.path, call.line,
                                    call.column,
                                    "task submitted to the "
                                    "executor here"};
                            work.push_back(ref);
                        }
            }
        }
        // BFS over the call graph: everything a task body can call
        // runs on a worker thread. A submitting function itself is
        // not escaped (its straight-line code runs on the caller);
        // its lambdas are scanned separately.
        while (!work.empty()) {
            const FunctionRef ref = work.back();
            work.pop_back();
            const FlowHop &hop = escapeHop_[ref];
            for (const Statement &st : fnOf(ref).stmts)
                for (const CallSite &call : st.calls)
                    for (const FunctionRef &target :
                         graph_.resolve(call))
                        if (escaped_.insert(target).second) {
                            escapeHop_[target] = hop;
                            work.push_back(target);
                        }
        }
    }

    // -- interprocedural pairing (summary-backed) ---------------

    void collectLockPairing()
    {
        if (sums_ == nullptr)
            return;
        for (std::size_t fi = 0; fi < files_.size(); ++fi)
            for (std::size_t gi = 0;
                 gi < files_[fi].functions.size(); ++gi) {
                const FunctionRef ref{fi, gi};
                const LockEffects &e = sums_->of(ref).locks;
                for (const std::string &r : e.localLocks)
                    rawLockers_[r].insert(ref);
                for (const std::string &r : e.localUnlocks)
                    rawUnlockers_[r].insert(ref);
            }
    }

    /** True when `ref` looks like one half of a cross-function
     *  lock protocol for `r`: some *other* function supplies the
     *  counterpart operation, and `ref` has callers that can pair
     *  them. Local-looking imbalances in such helpers are reported
     *  at the (root) callers instead, via the call effects. */
    bool pairedElsewhere(
        const std::map<std::string, std::set<FunctionRef>> &table,
        const std::string &r, FunctionRef ref) const
    {
        if (sums_ == nullptr)
            return false;
        const auto it = table.find(r);
        if (it == table.end())
            return false;
        bool other = false;
        for (const FunctionRef &cand : it->second)
            other |= !(cand == ref);
        if (!other)
            return false;
        return !graph_.callersOf(fnOf(ref).name).empty();
    }

    // -- per-function lockset analysis --------------------------

    /** Extract lock events and plain writes from the statement
     *  token range [b, e). `guardVars` maps guard variables to the
     *  resources they hold and accumulates across the function. */
    void extractFromStmt(
        const std::vector<Token> &toks, std::size_t b,
        std::size_t e,
        std::map<std::string, std::vector<std::string>> &guardVars,
        std::vector<LockEvent> &events,
        std::vector<WriteSite> &writes, std::size_t fi)
    {
        // Plain single-identifier write: `x = ...`, `x += ...`,
        // `x++`, `++x` as the whole left-hand side.
        if (e > b + 1 && toks[b].kind == TokenKind::Identifier &&
            !contains(kStmtKeywords, toks[b].text)) {
            static constexpr std::array<std::string_view, 11> kOps =
                {"=", "+=", "-=", "*=", "/=", "%=", "|=", "&=",
                 "^=", "<<=", ">>="};
            const Token &op = toks[b + 1];
            if ((op.kind == TokenKind::Punct &&
                 contains(kOps, op.text)) ||
                isPunct(op, "++") || isPunct(op, "--"))
                writes.push_back({toks[b].text, b, toks[b].line,
                                  toks[b].column});
        }
        if (e > b + 1 && (isPunct(toks[b], "++") ||
                          isPunct(toks[b], "--")) &&
            toks[b + 1].kind == TokenKind::Identifier)
            writes.push_back({toks[b + 1].text, b,
                              toks[b + 1].line,
                              toks[b + 1].column});

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
                        // Resource spelling: the identifier chain
                        // at the start of the argument.
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
                    LockEvent ev;
                    ev.kind = LockEvent::Kind::GuardAcquire;
                    ev.resources = resources;
                    ev.token = j;
                    ev.line = t.line;
                    ev.column = t.column;
                    events.push_back(std::move(ev));
                }
                j = close;
                continue;
            }
            // Member calls: lock/unlock discipline and atomic ops.
            if ((isPunct(t, ".") || isPunct(t, "->")) &&
                j + 2 < e &&
                toks[j + 1].kind == TokenKind::Identifier &&
                isPunct(toks[j + 2], "(")) {
                const std::string &method = toks[j + 1].text;
                if (method == "lock" || method == "unlock") {
                    const std::string recv =
                        receiverChain(toks, j);
                    if (recv.empty())
                        continue;
                    LockEvent ev;
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
                                      ? LockEvent::Kind::GuardRelock
                                      : LockEvent::Kind::
                                            GuardRelease;
                    } else {
                        ev.resources = {recv};
                        ev.kind = method == "lock"
                                      ? LockEvent::Kind::RawLock
                                      : LockEvent::Kind::RawUnlock;
                    }
                    events.push_back(std::move(ev));
                    continue;
                }
                if (contains(kAtomicOps, method)) {
                    const std::string recv =
                        receiverChain(toks, j);
                    if (!recv.empty())
                        atomicSites_[fi][lastComponent(recv)]
                            .push_back({toks[j + 1].line,
                                        toks[j + 1].column});
                    continue;
                }
            }
            // std::atomic_ref<T>(x) wraps x for atomic access.
            if (t.kind == TokenKind::Identifier &&
                t.text == "atomic_ref") {
                std::size_t k = j + 1;
                if (k < e && isPunct(toks[k], "<"))
                    k = skipAngles(toks, k, e);
                if (k < e && isPunct(toks[k], "(") && k + 1 < e &&
                    toks[k + 1].kind == TokenKind::Identifier)
                    atomicSites_[fi][toks[k + 1].text].push_back(
                        {toks[k + 1].line, toks[k + 1].column});
            }
        }
    }

    void analyzeFunction(FunctionRef ref)
    {
        const FileModel &file = files_[ref.file];
        const FunctionModel &fn = fnOf(ref);
        if (fn.bodyEnd <= fn.bodyBegin)
            return;
        const auto &toks = file.lexed.tokens;
        const Cfg cfg = buildCfg(file, fn);

        // Events and writes per block, in statement order.
        std::map<std::string, std::vector<std::string>> guardVars;
        std::vector<std::vector<LockEvent>> events(
            cfg.blocks.size());
        std::vector<std::vector<WriteSite>> writes(
            cfg.blocks.size());
        for (std::size_t b = 0; b < cfg.blocks.size(); ++b)
            for (const CfgStmt &st : cfg.blocks[b].stmts)
                extractFromStmt(toks, st.begin, st.end, guardVars,
                                events[b], writes[b], ref.file);

        // Calls whose callee has a net lock effect (per the
        // interprocedural summaries) become events too, so a mutex
        // locked in acquire() and released in release() is tracked
        // through the function that pairs them.
        if (sums_ != nullptr) {
            for (const Statement &stmt : fn.stmts)
                for (const CallSite &call : stmt.calls) {
                    const LockEffects *eff = nullptr;
                    for (const FunctionRef def :
                         graph_.resolve(call)) {
                        const LockEffects &e =
                            sums_->of(def).locks;
                        if (e.hasNetEffect()) {
                            eff = &e;
                            break;
                        }
                    }
                    if (eff == nullptr)
                        continue;
                    for (std::size_t b = 0;
                         b < cfg.blocks.size(); ++b)
                        for (const CfgStmt &st :
                             cfg.blocks[b].stmts)
                            if (call.begin >= st.begin &&
                                call.begin < st.end) {
                                LockEvent ev;
                                ev.kind =
                                    LockEvent::Kind::CallEffect;
                                ev.token = call.begin;
                                ev.line = call.line;
                                ev.column = call.column;
                                ev.effects = eff;
                                ev.callee = call.callee;
                                events[b].push_back(
                                    std::move(ev));
                                b = cfg.blocks.size() - 1;
                                break;
                            }
                }
            for (auto &evs : events)
                std::stable_sort(
                    evs.begin(), evs.end(),
                    [](const LockEvent &a, const LockEvent &b) {
                        return a.token < b.token;
                    });
        }

        // Forward fixpoint over (must, may).
        std::vector<std::vector<std::size_t>> preds(
            cfg.blocks.size());
        for (std::size_t b = 0; b < cfg.blocks.size(); ++b)
            for (const std::size_t s : cfg.blocks[b].succs)
                preds[s].push_back(b);
        std::vector<LockState> in(cfg.blocks.size());
        std::vector<LockState> outState(cfg.blocks.size());
        in[Cfg::kEntry].reached = true;
        bool changed = true;
        while (changed) {
            changed = false;
            for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
                for (const std::size_t p : preds[b])
                    changed |= in[b].meet(outState[p]);
                if (!in[b].reached)
                    continue;
                LockState s = in[b];
                for (const LockEvent &ev : events[b])
                    s.apply(ev);
                if (!(s.must == outState[b].must &&
                      s.may == outState[b].may &&
                      s.rawMay == outState[b].rawMay &&
                      s.reached == outState[b].reached)) {
                    outState[b] = std::move(s);
                    changed = true;
                }
            }
        }

        // Reporting pass over the converged states, in block and
        // statement order (deterministic by construction).
        const bool isEscaped = escaped_.count(ref) != 0;
        const FlowHop *escHop = nullptr;
        if (const auto it = escapeHop_.find(ref);
            it != escapeHop_.end())
            escHop = &it->second;
        std::map<std::string, Site> firstRawLock;
        std::map<std::string, Site> firstHeldAt;
        struct CallIntro
        {
            Site site;
            std::string callee;
            const LockEffects *effects = nullptr;
        };
        std::map<std::string, CallIntro> callIntro;
        for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
            if (!in[b].reached || !cfg.blocks[b].reachable)
                continue;
            LockState s = in[b];
            for (const CfgStmt &st : cfg.blocks[b].stmts) {
                // Writes are checked against the lockset at the
                // statement entry; the statement's own lock events
                // apply afterwards.
                for (const WriteSite &w : writes[b]) {
                    if (w.token < st.begin || w.token >= st.end)
                        continue;
                    plainWrites_[ref.file][w.name].push_back(
                        {w.line, w.column});
                    if (!isEscaped || !s.must.empty())
                        continue;
                    const auto shared =
                        statics_[ref.file].find(w.name);
                    if (shared == statics_[ref.file].end())
                        continue;
                    std::vector<FlowHop> hops;
                    hops.push_back({file.path,
                                    shared->second.line,
                                    shared->second.column,
                                    "mutable static shared state "
                                    "declared here"});
                    if (escHop != nullptr)
                        hops.push_back(*escHop);
                    hops.push_back({file.path, w.line, w.column,
                                    "written with an empty "
                                    "lockset"});
                    emit("race-shared-write", file, w.line,
                         w.column,
                         "write to shared static '" + w.name +
                             "' reachable from executor tasks "
                             "with an empty lockset",
                         std::move(hops), fn.qualified, s.must);
                }
                for (const LockEvent &ev : events[b]) {
                    if (ev.token < st.begin || ev.token >= st.end)
                        continue;
                    checkDiscipline(ref, file, fn, s, ev,
                                    firstHeldAt);
                    s.apply(ev);
                    if (ev.kind == LockEvent::Kind::RawLock)
                        for (const std::string &r : ev.resources)
                            firstRawLock.try_emplace(
                                r, Site{ev.line, ev.column});
                    if (ev.kind == LockEvent::Kind::RawLock ||
                        ev.kind == LockEvent::Kind::GuardAcquire ||
                        ev.kind == LockEvent::Kind::GuardRelock)
                        for (const std::string &r : ev.resources)
                            firstHeldAt.try_emplace(
                                r, Site{ev.line, ev.column});
                    if (ev.kind == LockEvent::Kind::CallEffect) {
                        for (const std::string &r :
                             ev.effects->mayAcquire) {
                            callIntro.try_emplace(
                                r, CallIntro{Site{ev.line,
                                                  ev.column},
                                             ev.callee,
                                             ev.effects});
                            firstHeldAt.try_emplace(
                                r, Site{ev.line, ev.column});
                        }
                        for (const std::string &r :
                             ev.effects->mustAcquire) {
                            callIntro.try_emplace(
                                r, CallIntro{Site{ev.line,
                                                  ev.column},
                                             ev.callee,
                                             ev.effects});
                            firstHeldAt.try_emplace(
                                r, Site{ev.line, ev.column});
                        }
                    }
                }
            }
        }

        // Leak: a raw lock still (possibly) held at the exit —
        // acquired here, or left behind by a callee with a net
        // acquire effect.
        const LockState &exitIn = in[Cfg::kExit];
        if (exitIn.reached)
            for (const std::string &r : exitIn.rawMay) {
                const auto site = firstRawLock.find(r);
                if (site != firstRawLock.end()) {
                    // A helper whose unlock half lives in another
                    // function is not a local leak: the callers
                    // that fail to pair it are reported instead.
                    if (pairedElsewhere(rawUnlockers_, r, ref))
                        continue;
                    std::vector<FlowHop> hops;
                    hops.push_back({file.path, site->second.line,
                                    site->second.column,
                                    "raw lock acquired here"});
                    hops.push_back(
                        {file.path,
                         toks[fn.bodyEnd].line,
                         toks[fn.bodyEnd].column,
                         "a path reaches the function exit without "
                         "unlocking"});
                    emit("lock-leak", file, site->second.line,
                         site->second.column,
                         "'" + r +
                             ".lock()' is not matched by an unlock "
                             "on every path (use lock_guard/"
                             "scoped_lock/unique_lock)",
                         std::move(hops), fn.qualified,
                         exitIn.must);
                    continue;
                }
                // Cross-function: a callee left the lock held and
                // no path here releases it. Reported only at root
                // callers, so a leak surfaces once, not at every
                // wrapper along the chain.
                const auto intro = callIntro.find(r);
                if (intro == callIntro.end())
                    continue;
                if (!graph_.callersOf(fn.name).empty())
                    continue;
                std::vector<FlowHop> hops;
                if (const auto chain =
                        intro->second.effects->acquireChain.find(
                            r);
                    chain !=
                    intro->second.effects->acquireChain.end())
                    hops = chain->second;
                hops.push_back({file.path, intro->second.site.line,
                                intro->second.site.column,
                                "call to '" +
                                    intro->second.callee +
                                    "()' leaves '" + r +
                                    "' locked"});
                hops.push_back(
                    {file.path,
                     toks[fn.bodyEnd].line,
                     toks[fn.bodyEnd].column,
                     "a path reaches the function exit without "
                     "unlocking"});
                emit("lock-leak", file, intro->second.site.line,
                     intro->second.site.column,
                     "'" + r + ".lock()' acquired by call to '" +
                         intro->second.callee +
                         "()' is not matched by an unlock on "
                         "every path (use lock_guard/scoped_lock/"
                         "unique_lock)",
                     std::move(hops), fn.qualified, exitIn.must);
            }

        if (seeds_.count(ref) != 0)
            scanTaskLambdas(ref, guardVars);
        if (pathInDir(file.path, "src/serve") ||
            file.path.rfind("serve/", 0) == 0)
            scanDiscardedErrors(ref, cfg);
    }

    void checkDiscipline(FunctionRef ref, const FileModel &file,
                         const FunctionModel &fn,
                         const LockState &s, const LockEvent &ev,
                         const std::map<std::string, Site> &held)
    {
        // A callee that acquires a lock already (possibly) held is
        // a double-lock, same as a raw .lock() here.
        if (ev.kind == LockEvent::Kind::CallEffect) {
            for (const std::string &r : ev.effects->mustAcquire)
                if (s.may.count(r) != 0) {
                    std::vector<FlowHop> hops;
                    if (const auto it = held.find(r);
                        it != held.end())
                        hops.push_back({file.path,
                                        it->second.line,
                                        it->second.column,
                                        "'" + r +
                                            "' first locked here"});
                    hops.push_back({file.path, ev.line, ev.column,
                                    "call to '" + ev.callee +
                                        "()' locks it again"});
                    emit("guard-discipline", file, ev.line,
                         ev.column,
                         "double-lock of '" + r + "': call to '" +
                             ev.callee +
                             "()' acquires a lock already held "
                             "on some path",
                         std::move(hops), fn.qualified, s.must);
                }
            return;
        }
        // `lk.lock()` on a unique_lock that may already hold the
        // mutex throws std::system_error at runtime, so the guard
        // receiver form is a double-lock exactly like a raw one.
        if (ev.kind == LockEvent::Kind::RawLock ||
            ev.kind == LockEvent::Kind::GuardRelock) {
            for (const std::string &r : ev.resources)
                if (s.may.count(r) != 0) {
                    std::vector<FlowHop> hops;
                    if (const auto it = held.find(r);
                        it != held.end())
                        hops.push_back({file.path,
                                        it->second.line,
                                        it->second.column,
                                        "'" + r +
                                            "' first locked here"});
                    hops.push_back({file.path, ev.line, ev.column,
                                    "locked again on a path where "
                                    "it may already be held"});
                    emit("guard-discipline", file, ev.line,
                         ev.column,
                         "double-lock of '" + r +
                             "': already held on some path "
                             "reaching this lock()",
                         std::move(hops), fn.qualified, s.must);
                }
            return;
        }
        if (ev.kind == LockEvent::Kind::RawUnlock)
            for (const std::string &r : ev.resources)
                if (s.must.count(r) == 0) {
                    // The release half of a cross-function lock
                    // protocol: the lock half lives elsewhere and
                    // the callers pair them.
                    if (pairedElsewhere(rawLockers_, r, ref))
                        continue;
                    std::vector<FlowHop> hops;
                    hops.push_back({file.path, ev.line, ev.column,
                                    "unlocked on a path where it "
                                    "is not held"});
                    emit("guard-discipline", file, ev.line,
                         ev.column,
                         "unlock of '" + r +
                             "' on a path where it is not held",
                         std::move(hops), fn.qualified, s.must);
                }
    }

    // -- race scan inside executor task lambdas -----------------

    /** Scan every lambda in a submitting function: writes to
     *  by-reference captures (or file statics) without a lock held
     *  inside the task body race across workers. */
    void scanTaskLambdas(
        FunctionRef ref,
        const std::map<std::string, std::vector<std::string>>
            &guardVars)
    {
        const FileModel &file = files_[ref.file];
        const FunctionModel &fn = fnOf(ref);
        const auto &toks = file.lexed.tokens;
        for (std::size_t j = fn.bodyBegin + 1; j < fn.bodyEnd;
             ++j) {
            if (!isPunct(toks[j], "["))
                continue;
            if (j > 0 &&
                (toks[j - 1].kind == TokenKind::Identifier ||
                 isPunct(toks[j - 1], "]") ||
                 isPunct(toks[j - 1], ")")))
                continue; // subscript, not a capture list
            const std::size_t rb =
                matchClose(toks, j, fn.bodyEnd, "[", "]");
            if (rb >= fn.bodyEnd)
                continue;
            // Captures.
            bool refAll = false;
            std::set<std::string> byRef;
            std::set<std::string> locals;
            for (std::size_t k = j + 1; k < rb; ++k) {
                if (isPunct(toks[k], "&")) {
                    if (k + 1 < rb &&
                        toks[k + 1].kind == TokenKind::Identifier) {
                        byRef.insert(toks[k + 1].text);
                        ++k;
                    } else
                        refAll = true;
                } else if (toks[k].kind == TokenKind::Identifier &&
                           k + 1 < rb && isPunct(toks[k + 1], "=")) {
                    locals.insert(toks[k].text); // init capture
                    ++k;
                }
            }
            // Parameters.
            std::size_t k = rb + 1;
            if (k < fn.bodyEnd && isPunct(toks[k], "(")) {
                const std::size_t close =
                    matchParen(toks, k, fn.bodyEnd);
                std::string last;
                for (std::size_t p = k + 1; p < close; ++p) {
                    if (toks[p].kind == TokenKind::Identifier)
                        last = toks[p].text;
                    if (isPunct(toks[p], ",") ||
                        isPunct(toks[p], "=")) {
                        if (!last.empty())
                            locals.insert(last);
                        last.clear();
                        if (isPunct(toks[p], "="))
                            while (p < close &&
                                   !isPunct(toks[p], ","))
                                ++p;
                    }
                }
                if (!last.empty())
                    locals.insert(last);
                k = close + 1;
            }
            // Body.
            while (k < fn.bodyEnd && !isPunct(toks[k], "{") &&
                   !isPunct(toks[k], ";") && !isPunct(toks[k], ")"))
                ++k;
            if (k >= fn.bodyEnd || !isPunct(toks[k], "{"))
                continue;
            const std::size_t ob = k;
            const std::size_t cb =
                matchBrace(toks, ob, fn.bodyEnd);
            scanLambdaBody(ref, j, ob, cb, refAll, byRef, locals,
                           guardVars);
            j = cb;
        }
    }

    void scanLambdaBody(
        FunctionRef ref, std::size_t captureTok, std::size_t ob,
        std::size_t cb, bool refAll,
        const std::set<std::string> &byRef,
        std::set<std::string> locals,
        const std::map<std::string, std::vector<std::string>>
            &guardVars)
    {
        const FileModel &file = files_[ref.file];
        const FunctionModel &fn = fnOf(ref);
        const auto &toks = file.lexed.tokens;

        // First pass: local declarations anywhere in the body
        // (statement ranges with >= 2 identifiers before the first
        // assignment operator register every identifier — type
        // words included, which is harmless for exclusion).
        int depth = 0;
        std::size_t start = ob + 1;
        const auto collectDecl = [&](std::size_t s,
                                     std::size_t e2) {
            // `else x = ...` must not read as `Type name = ...`.
            if (s < e2 && toks[s].kind == TokenKind::Identifier &&
                (contains(kStmtKeywords, toks[s].text) ||
                 toks[s].text == "else" || toks[s].text == "goto"))
                return;
            std::size_t limit = e2;
            std::size_t idents = 0;
            for (std::size_t p = s; p < e2; ++p) {
                if (isPunct(toks[p], "=")) {
                    limit = p;
                    break;
                }
                if (toks[p].kind == TokenKind::Identifier)
                    ++idents;
                else if (!isPunct(toks[p], "::") &&
                         !isPunct(toks[p], "<") &&
                         !isPunct(toks[p], ">") &&
                         !isPunct(toks[p], "&") &&
                         !isPunct(toks[p], "*") &&
                         !isPunct(toks[p], ",") &&
                         !isPunct(toks[p], "("))
                    return; // not a plain declaration shape
            }
            if (idents < 2)
                return;
            for (std::size_t p = s; p < limit; ++p)
                if (toks[p].kind == TokenKind::Identifier)
                    locals.insert(toks[p].text);
        };
        for (std::size_t p = ob + 1; p < cb; ++p) {
            const Token &t = toks[p];
            if (isPunct(t, "(") || isPunct(t, "["))
                ++depth;
            else if (isPunct(t, ")") || isPunct(t, "]"))
                --depth;
            else if (depth == 0 &&
                     (isPunct(t, ";") || isPunct(t, "{") ||
                      isPunct(t, "}"))) {
                collectDecl(start, p);
                start = p + 1;
            }
        }

        // Second pass: a linear lock counter (branching inside a
        // task body is approximated; guards hold to the lambda
        // end) and statement-leading writes.
        int held = 0;
        for (std::size_t p = ob + 1; p < cb; ++p) {
            const Token &t = toks[p];
            if (t.kind == TokenKind::Identifier &&
                contains(kGuardTypes, t.text)) {
                ++held;
                continue;
            }
            if ((isPunct(t, ".") || isPunct(t, "->")) &&
                p + 2 < cb &&
                toks[p + 1].kind == TokenKind::Identifier &&
                isPunct(toks[p + 2], "(")) {
                const std::string &m = toks[p + 1].text;
                if (m != "lock" && m != "unlock")
                    continue;
                const std::string recv = receiverChain(toks, p);
                const auto type =
                    declType_.find(lastComponent(recv));
                const bool guardRecv =
                    guardVars.count(recv) != 0 ||
                    (type != declType_.end() &&
                     contains(kGuardTypes, type->second));
                if (guardRecv)
                    continue;
                held += m == "lock" ? 1 : -1;
                continue;
            }
            // Statement-leading single-identifier write.
            const bool atStart =
                isPunct(toks[p - 1], ";") ||
                isPunct(toks[p - 1], "{") ||
                isPunct(toks[p - 1], "}") ||
                isPunct(toks[p - 1], ")") ||
                isPunct(toks[p - 1], ":") ||
                (toks[p - 1].kind == TokenKind::Identifier &&
                 (toks[p - 1].text == "else" ||
                  toks[p - 1].text == "do"));
            if (!atStart || t.kind != TokenKind::Identifier ||
                contains(kStmtKeywords, t.text) || p + 1 >= cb)
                continue;
            static constexpr std::array<std::string_view, 11> kOps =
                {"=", "+=", "-=", "*=", "/=", "%=", "|=", "&=",
                 "^=", "<<=", ">>="};
            const Token &op = toks[p + 1];
            const bool isWrite =
                (op.kind == TokenKind::Punct &&
                 (contains(kOps, op.text) || op.text == "++" ||
                  op.text == "--"));
            if (!isWrite)
                continue;
            const std::string &name = t.text;
            if (locals.count(name) != 0)
                continue;
            const bool isStatic =
                statics_[ref.file].count(name) != 0;
            if (!isStatic && !refAll && byRef.count(name) == 0)
                continue;
            if (const auto ty = declType_.find(name);
                ty != declType_.end() &&
                (ty->second.find("atomic") != std::string::npos ||
                 ty->second == "mutex" ||
                 contains(kGuardTypes, ty->second)))
                continue;
            if (held > 0)
                continue;
            std::vector<FlowHop> hops;
            hops.push_back({file.path, toks[captureTok].line,
                            toks[captureTok].column,
                            isStatic
                                ? "executor task lambda begins "
                                  "here"
                                : "captured by reference by an "
                                  "executor task lambda"});
            hops.push_back({file.path, t.line, t.column,
                            "written inside the task with an "
                            "empty lockset"});
            emit("race-shared-write", file, t.line, t.column,
                 "write to '" + name +
                     "' shared across executor tasks with an "
                     "empty lockset",
                 std::move(hops), fn.qualified, {});
        }
    }

    // -- discarded error-carrying returns in serve code ---------

    void scanDiscardedErrors(FunctionRef ref, const Cfg &cfg)
    {
        const FileModel &file = files_[ref.file];
        const FunctionModel &fn = fnOf(ref);
        const auto &toks = file.lexed.tokens;
        for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
            if (!cfg.blocks[b].reachable)
                continue;
            for (const CfgStmt &st : cfg.blocks[b].stmts) {
                if (st.end <= st.begin + 1)
                    continue;
                const Token &lead = toks[st.begin];
                if (lead.kind != TokenKind::Identifier ||
                    contains(kStmtKeywords, lead.text))
                    continue;
                // The whole statement must be one call: an
                // identifier chain, `(`, and a `)` as the last
                // token.
                std::size_t p = st.begin;
                bool member = false;
                while (p + 1 < st.end &&
                       toks[p].kind == TokenKind::Identifier &&
                       (isPunct(toks[p + 1], ".") ||
                        isPunct(toks[p + 1], "->") ||
                        isPunct(toks[p + 1], "::"))) {
                    member |= !isPunct(toks[p + 1], "::");
                    p += 2;
                }
                if (p + 1 >= st.end ||
                    toks[p].kind != TokenKind::Identifier ||
                    !isPunct(toks[p + 1], "("))
                    continue;
                if (matchParen(toks, p + 1, st.end) != st.end - 1)
                    continue;
                const std::string &callee = toks[p].text;
                const FunctionModel *target = nullptr;
                if (member) {
                    const std::string recv =
                        p >= 2 ? toks[p - 2].text : "";
                    const auto ty = declType_.find(recv);
                    if (ty == declType_.end())
                        continue;
                    const std::string want =
                        ty->second + "::" + callee;
                    for (const FunctionRef &d :
                         graph_.definitionsOf(callee)) {
                        const FunctionModel &def = fnOf(d);
                        if (qualifiedSuffixMatches(def.qualified,
                                                   want)) {
                            target = &def;
                            break;
                        }
                    }
                } else {
                    const auto &defs =
                        graph_.definitionsOf(callee);
                    if (defs.empty())
                        continue;
                    bool allBool = true;
                    for (const FunctionRef &d : defs)
                        allBool &= fnOf(d).retType == "bool";
                    if (allBool)
                        target = &fnOf(defs.front());
                }
                if (target == nullptr ||
                    target->retType != "bool")
                    continue;
                std::vector<FlowHop> hops;
                hops.push_back({file.path, lead.line, lead.column,
                                "error-carrying result discarded "
                                "here"});
                emit("flow-unchecked-error", file, lead.line,
                     lead.column,
                     "return value of '" + callee +
                         "' carries an error and is discarded",
                     std::move(hops), fn.qualified, {});
            }
        }
    }

    // -- atomic vs plain access ---------------------------------

    void reportMixedAccess()
    {
        for (std::size_t fi = 0; fi < files_.size(); ++fi) {
            const FileModel &file = files_[fi];
            for (const auto &[name, sites] : atomicSites_[fi]) {
                const auto ty = declType_.find(name);
                if (ty == declType_.end() ||
                    ty->second.find("atomic") != std::string::npos)
                    continue; // unknown or properly atomic
                const auto writes = plainWrites_[fi].find(name);
                if (writes == plainWrites_[fi].end() ||
                    writes->second.empty())
                    continue;
                const Site &atomicSite = sites.front();
                const Site &plainSite = writes->second.front();
                std::vector<FlowHop> hops;
                hops.push_back({file.path, atomicSite.line,
                                atomicSite.column,
                                "accessed atomically here"});
                hops.push_back({file.path, plainSite.line,
                                plainSite.column,
                                "written plainly here"});
                emit("atomic-mixed-access", file, plainSite.line,
                     plainSite.column,
                     "'" + name +
                         "' is accessed both atomically and "
                         "through plain writes",
                     std::move(hops), "", {});
            }
        }
    }
};

} // namespace

const std::vector<std::string_view> &
concurrencyRuleNames()
{
    static const std::vector<std::string_view> names = [] {
        std::vector<std::string_view> v;
        for (const ConcurrencyRule &r : kRules)
            v.push_back(r.name);
        return v;
    }();
    return names;
}

bool
isConcurrencyRuleName(std::string_view name)
{
    for (const ConcurrencyRule &r : kRules)
        if (r.name == name)
            return true;
    return false;
}

std::string_view
concurrencyRuleSummary(std::string_view rule)
{
    for (const ConcurrencyRule &r : kRules)
        if (r.name == rule)
            return r.summary;
    return "";
}

Severity
concurrencyRuleSeverity(std::string_view rule)
{
    for (const ConcurrencyRule &r : kRules)
        if (r.name == rule)
            return r.severity;
    return Severity::Error;
}

ConcurrencyAnalysis
analyzeConcurrency(const std::vector<FileModel> &files,
                   const CallGraph &graph)
{
    return Engine(files, graph, nullptr).run();
}

ConcurrencyAnalysis
analyzeConcurrency(const std::vector<FileModel> &files,
                   const CallGraph &graph,
                   const SummarySet &summaries)
{
    return Engine(files, graph, &summaries).run();
}

} // namespace netchar::lint
