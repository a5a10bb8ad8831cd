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

/** Executor task submission entry points (escape-set seeds). */
constexpr std::array<std::string_view, 2> kSubmitNames = {
    "forEach",
    "forEachCollect",
};

/** Statement-leading keywords that are never a discarded call. */
constexpr std::array<std::string_view, 13> kStmtKeywords = {
    "return", "if",    "while",    "for",   "switch",
    "do",     "case",  "default",  "break", "continue",
    "throw",  "delete", "co_return",
};

/** Assignment operators that make a statement-leading identifier a
 *  plain write. */
constexpr std::array<std::string_view, 11> kAssignOps = {
    "=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>=",
};

/** The identifier a statement starting at token `p` writes as its
 *  whole left-hand side (`x = ...`, `x += ...`, `x++`, `++x`), or
 *  null. The statement ends before token `end`. */
const Token *
writtenAt(const std::vector<Token> &toks, std::size_t p, std::size_t end)
{
    if (p + 1 >= end)
        return nullptr;
    const Token &a = toks[p];
    const Token &b = toks[p + 1];
    if (a.kind == TokenKind::Identifier &&
        !contains(kStmtKeywords, a.text) &&
        (isPunct(b, "++") || isPunct(b, "--") ||
         (b.kind == TokenKind::Punct && contains(kAssignOps, b.text))))
        return &a;
    if ((isPunct(a, "++") || isPunct(a, "--")) &&
        b.kind == TokenKind::Identifier)
        return &b;
    return nullptr;
}

/** A source position. */
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
           const CallGraph &graph, const SummarySet &sums,
           LockModel locks)
        : files_(files), graph_(graph), sums_(sums),
          locks_(std::move(locks))
    {
    }

    ConcurrencyAnalysis run()
    {
        collectStatics();
        computeEscapeSet();
        collectLockPairing();
        // Each function's lock model is used by one analyzeFunction
        // call, then freed.
        for (std::size_t fi = 0; fi < files_.size(); ++fi)
            for (std::size_t gi = 0;
                 gi < files_[fi].functions.size(); ++gi) {
                analyzeFunction({fi, gi});
                locks_.byFile[fi][gi] = FunctionLocks{};
            }
        out_.escapedFunctions = escaped_.size();
        return std::move(out_);
    }

  private:
    const std::vector<FileModel> &files_;
    const CallGraph &graph_;
    const SummarySet &sums_;
    ConcurrencyAnalysis out_;
    std::set<std::string> emitted_;
    /** Per resource: functions that syntactically raw-unlock it
     *  (from the interprocedural summaries) — the basis for pairing
     *  wrapper acquire()/release() helpers. */
    std::map<std::string, std::set<FunctionRef>> rawUnlockers_;

    /** The lock model computeSummaries built. Its `types` (name →
     *  last type-word of its declaration; later files win, and
     *  files arrive sorted, so this is deterministic) also spot
     *  guard/atomic/mutex objects and type member-call receivers. */
    LockModel locks_;
    /** Per file: mutable, non-atomic statics by name. */
    std::vector<std::map<std::string, Site, std::less<>>> statics_;
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
        f.message = std::move(message);
        f.path = std::move(hops);
        f.function = function;
        f.lockset.assign(held.begin(), held.end());
        out_.findings.push_back(std::move(f));
    }

    // -- vocabulary collection ----------------------------------

    /** Mutable, non-atomic `static` objects per file — the shared
     *  state the race rule protects. Const/constexpr/thread_local/
     *  mutex/atomic declarations and function declarations are not
     *  race targets. */
    void collectStatics()
    {
        statics_.resize(files_.size());
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
                         graph_.resolve(ref.file, call))
                        if (escaped_.insert(target).second) {
                            escapeHop_[target] = hop;
                            work.push_back(target);
                        }
        }
    }

    // -- interprocedural pairing (summary-backed) ---------------

    void collectLockPairing()
    {
        for (std::size_t fi = 0; fi < files_.size(); ++fi)
            for (std::size_t gi = 0;
                 gi < files_[fi].functions.size(); ++gi) {
                const FunctionRef ref{fi, gi};
                for (const std::string &r :
                     sums_.of(ref).locks.localUnlocks)
                    rawUnlockers_[r].insert(ref);
            }
    }

    /** True when `ref` looks like the lock half of a cross-function
     *  lock protocol for `r`: some *other* function raw-unlocks it,
     *  and `ref` has callers that can pair them. A leak-looking
     *  helper is reported at the (root) callers instead, via the
     *  call effects. */
    bool pairedElsewhere(const std::string &r, FunctionRef ref) const
    {
        const auto it = rawUnlockers_.find(r);
        if (it == rawUnlockers_.end())
            return false;
        bool other = false;
        for (const FunctionRef &cand : it->second)
            other |= !(cand == ref);
        if (!other)
            return false;
        return !graph_.callersOf(fnOf(ref).name).empty();
    }

    // -- per-function lockset analysis --------------------------

    void analyzeFunction(FunctionRef ref)
    {
        const FileModel &file = files_[ref.file];
        const FunctionModel &fn = fnOf(ref);
        if (fn.bodyEnd <= fn.bodyBegin)
            return;
        const auto &toks = file.lexed.tokens;
        FunctionLocks &locks = locks_.byFile[ref.file][ref.fn];
        bindCalleeEffects(locks, ref.file, graph_, sums_);
        const Cfg &cfg = locks.cfg;
        const std::vector<LockState> in = solveLocks(locks);

        // Reporting pass over the converged states, in block and
        // statement order (deterministic by construction).
        const bool isEscaped = escaped_.count(ref) != 0;
        const FlowHop *escHop = nullptr;
        if (const auto it = escapeHop_.find(ref);
            it != escapeHop_.end())
            escHop = &it->second;
        std::map<std::string, Site> firstRawLock;
        /** Resource → the first call that leaves it held. */
        std::map<std::string, const LockEvent *> callIntro;
        for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
            if (!in[b].reached || !cfg.blocks[b].reachable)
                continue;
            LockState s = in[b];
            // Events are in token order, each inside one of the
            // block's statements.
            const std::vector<LockEvent> &evs = locks.events[b];
            std::size_t next = 0;
            for (const CfgStmt &st : cfg.blocks[b].stmts) {
                // A write is checked against the lockset at the
                // statement entry; the statement's own lock events
                // apply afterwards.
                if (const Token *w = writtenAt(toks, st.begin, st.end)) {
                    const auto shared =
                        statics_[ref.file].find(w->text);
                    if (isEscaped && s.must.empty() &&
                        shared != statics_[ref.file].end()) {
                        std::vector<FlowHop> hops;
                        hops.push_back({file.path,
                                        shared->second.line,
                                        shared->second.column,
                                        "mutable static shared state "
                                        "declared here"});
                        if (escHop != nullptr)
                            hops.push_back(*escHop);
                        hops.push_back({file.path, w->line, w->column,
                                        "written with an empty "
                                        "lockset"});
                        emit("race-shared-write", file, w->line,
                             w->column,
                             "write to shared static '" +
                                 std::string(w->text) +
                                 "' reachable from executor tasks "
                                 "with an empty lockset",
                             std::move(hops), fn.qualified, s.must);
                    }
                }
                for (; next < evs.size() && evs[next].token < st.end;
                     ++next) {
                    const LockEvent &ev = evs[next];
                    s.apply(ev);
                    if (ev.kind == LockEvent::Kind::RawLock)
                        firstRawLock.try_emplace(
                            ev.resources.front(),
                            Site{ev.line, ev.column});
                    // mustAcquire ⊆ mayAcquire
                    if (ev.kind == LockEvent::Kind::Call &&
                        ev.effects != nullptr)
                        for (const std::string &r :
                             ev.effects->mayAcquire)
                            callIntro.try_emplace(r, &ev);
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
                    if (pairedElsewhere(r, ref))
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
                const LockEvent &call = *intro->second;
                const std::string &callee = call.call->callee;
                std::vector<FlowHop> hops;
                if (const auto chain =
                        call.effects->acquireChain.find(r);
                    chain != call.effects->acquireChain.end())
                    hops = chain->second;
                hops.push_back({file.path, call.line, call.column,
                                "call to '" + callee +
                                    "()' leaves '" + r +
                                    "' locked"});
                hops.push_back(
                    {file.path,
                     toks[fn.bodyEnd].line,
                     toks[fn.bodyEnd].column,
                     "a path reaches the function exit without "
                     "unlocking"});
                emit("lock-leak", file, call.line, call.column,
                     "'" + r + ".lock()' acquired by call to '" +
                         callee +
                         "()' is not matched by an unlock on "
                         "every path (use lock_guard/scoped_lock/"
                         "unique_lock)",
                     std::move(hops), fn.qualified, exitIn.must);
            }

        if (seeds_.count(ref) != 0)
            scanTaskLambdas(ref, locks.guardVars);
    }

    // -- race scan inside executor task lambdas -----------------

    /** Scan every lambda in a submitting function: writes to
     *  by-reference captures (or file statics) without a lock held
     *  inside the task body race across workers. */
    void scanTaskLambdas(FunctionRef ref, const GuardVars &guardVars)
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
                        byRef.emplace(toks[k + 1].text);
                        ++k;
                    } else
                        refAll = true;
                } else if (toks[k].kind == TokenKind::Identifier &&
                           k + 1 < rb && isPunct(toks[k + 1], "=")) {
                    locals.emplace(toks[k].text); // init capture
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
        std::set<std::string> locals, const GuardVars &guardVars)
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
                    locals.emplace(toks[p].text);
        };
        for (std::size_t p = ob + 1; p < cb; ++p) {
            const Token &t = toks[p];
            // A classic for's init-statement declares loop locals
            // (`for (std::size_t i = 0; ...; ++i)`).
            if (isId(t, "for") && p + 1 < cb &&
                isPunct(toks[p + 1], "(")) {
                const std::size_t close = matchParen(toks, p + 1, cb);
                std::size_t semi = p + 2;
                while (semi < close && !isPunct(toks[semi], ";"))
                    ++semi;
                if (semi < close)
                    collectDecl(p + 2, semi);
            }
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
                const std::string_view m = toks[p + 1].text;
                if (m != "lock" && m != "unlock")
                    continue;
                if (isGuardReceiver(receiverChain(toks, p), guardVars,
                                    locks_.types))
                    continue;
                held += m == "lock" ? 1 : -1;
                continue;
            }
            // Statement-leading write to a single identifier.
            const bool atStart =
                isPunct(toks[p - 1], ";") ||
                isPunct(toks[p - 1], "{") ||
                isPunct(toks[p - 1], "}") ||
                isPunct(toks[p - 1], ")") ||
                isPunct(toks[p - 1], ":") ||
                (toks[p - 1].kind == TokenKind::Identifier &&
                 (toks[p - 1].text == "else" ||
                  toks[p - 1].text == "do"));
            const Token *w = atStart ? writtenAt(toks, p, cb) : nullptr;
            if (w == nullptr)
                continue;
            const std::string name(w->text);
            if (locals.count(name) != 0)
                continue;
            const bool isStatic =
                statics_[ref.file].count(name) != 0;
            if (!isStatic && !refAll && byRef.count(name) == 0)
                continue;
            if (const auto ty = locks_.types.find(name);
                ty != locks_.types.end() &&
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
            hops.push_back({file.path, w->line, w->column,
                            "written inside the task with an "
                            "empty lockset"});
            emit("race-shared-write", file, w->line, w->column,
                 "write to '" + name +
                     "' shared across executor tasks with an "
                     "empty lockset",
                 std::move(hops), fn.qualified, {});
        }
    }
};

} // namespace

ConcurrencyAnalysis
analyzeConcurrency(const std::vector<FileModel> &files,
                   const CallGraph &graph,
                   const SummarySet &summaries, LockModel locks)
{
    return Engine(files, graph, summaries, std::move(locks)).run();
}

} // namespace netchar::lint
