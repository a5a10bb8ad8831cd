#include "lint/rules.hh"

#include <algorithm>
#include <array>
#include <functional>

#include "lint/tokens.hh"

namespace netchar::lint
{

namespace
{

void
report(std::vector<Finding> &out, std::string_view path,
       const Rule &rule, const Token &at, std::string message)
{
    Finding f;
    f.file = std::string(path);
    f.line = at.line;
    f.column = at.column;
    f.rule = std::string(rule.name());
    f.severity = rule.severity();
    f.message = std::move(message);
    out.push_back(std::move(f));
}

/**
 * Directories whose code runs inside the simulated-time universe:
 * a host-clock read here makes output depend on the machine running
 * the reproduction. src/core is included because the sweep engine
 * orders and retries runs — its only sanctioned wall-time use is the
 * run ledger, which carries explicit allow() pragmas.
 */
constexpr std::array<std::string_view, 6> kDeterministicDirs = {
    "src/sim",   "src/runtime",   "src/stats",
    "src/trace", "src/workloads", "src/core",
};


class NoWallclock final : public Rule
{
  public:
    std::string_view name() const override { return "no-wallclock"; }
    Severity severity() const override { return Severity::Error; }
    std::string_view summary() const override
    {
        return "host clocks are banned in determinism-critical "
               "dirs; time must derive from simulated cycles";
    }
    bool appliesTo(std::string_view path) const override
    {
        for (const std::string_view dir : kDeterministicDirs)
            if (pathInDir(path, dir))
                return true;
        return false;
    }
    void check(std::string_view path, const LexedFile &lexed,
               std::vector<Finding> &out) const override
    {
        const auto &toks = lexed.tokens;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            if (idIn(toks[i], clockTypeNames())) {
                report(out, path, *this, toks[i],
                       "host clock '" + toks[i].text +
                           "' in determinism-critical code; use "
                           "simulated cycles (sim::Machine) or "
                           "pragma the intentional wall-time site");
                continue;
            }
            if (i + 1 < toks.size() &&
                idIn(toks[i], hostTimeCallNames()) &&
                isPunct(toks[i + 1], "(")) {
                report(out, path, *this, toks[i],
                       "host time function '" + toks[i].text +
                           "()' in determinism-critical code");
            }
        }
    }
};

/** Engines that are deterministic only when explicitly seeded. */
constexpr std::array<std::string_view, 6> kSeedableEngines = {
    "mt19937",  "mt19937_64", "minstd_rand",
    "minstd_rand0", "ranlux24", "ranlux48",
};

class NoAmbientRng final : public Rule
{
  public:
    std::string_view name() const override
    {
        return "no-ambient-rng";
    }
    Severity severity() const override { return Severity::Error; }
    std::string_view summary() const override
    {
        return "randomness must flow from an explicit seed: no "
               "rand(), random_device or argless engines";
    }
    bool appliesTo(std::string_view) const override { return true; }
    void check(std::string_view path, const LexedFile &lexed,
               std::vector<Finding> &out) const override
    {
        const auto &toks = lexed.tokens;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            const Token &t = toks[i];
            if ((isId(t, "rand") || isId(t, "srand") ||
                 isId(t, "rand_r") || isId(t, "drand48")) &&
                i + 1 < toks.size() && isPunct(toks[i + 1], "(")) {
                report(out, path, *this, t,
                       "'" + t.text +
                           "()' draws from ambient global state; "
                           "use stats::Rng with an explicit seed");
                continue;
            }
            if (isId(t, "random_device")) {
                report(out, path, *this, t,
                       "'random_device' is nondeterministic by "
                       "design; seeds must be explicit inputs");
                continue;
            }
            if (isId(t, "default_random_engine")) {
                report(out, path, *this, t,
                       "'default_random_engine' is implementation-"
                       "defined; results differ across hosts");
                continue;
            }
            if (idIn(t, kSeedableEngines) && arglessAfter(toks, i))
                report(out, path, *this, t,
                       "argless '" + t.text +
                           "' construction; pass the run seed "
                           "explicitly");
        }
    }

  private:
    /**
     * True when the engine mention at `i` is an argless
     * construction: `mt19937 g;`, `mt19937 g{};`, `mt19937{}`,
     * `mt19937()`. Seeded constructions, references and template
     * arguments all fall through.
     */
    static bool arglessAfter(const std::vector<Token> &toks,
                             std::size_t i)
    {
        std::size_t j = i + 1;
        if (j < toks.size() &&
            toks[j].kind == TokenKind::Identifier)
            ++j; // declared variable name
        if (j >= toks.size())
            return false;
        if (isPunct(toks[j], ";"))
            return j > i + 1; // `mt19937 g;` yes; bare mention no
        if (j + 1 < toks.size() && isPunct(toks[j], "(") &&
            isPunct(toks[j + 1], ")"))
            return true;
        if (j + 1 < toks.size() && isPunct(toks[j], "{") &&
            isPunct(toks[j + 1], "}"))
            return true;
        return false;
    }
};

constexpr std::array<std::string_view, 4> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
};

class NoUnorderedIteration final : public Rule
{
  public:
    std::string_view name() const override
    {
        return "no-unordered-iteration";
    }
    Severity severity() const override { return Severity::Error; }
    std::string_view summary() const override
    {
        return "range-for over unordered containers visits hash "
               "order, which leaks into exported output";
    }
    bool appliesTo(std::string_view) const override { return true; }
    void check(std::string_view path, const LexedFile &lexed,
               std::vector<Finding> &out) const override
    {
        const auto &toks = lexed.tokens;
        std::vector<std::string> names = declaredNames(toks);

        for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
            if (!isId(toks[i], "for") || !isPunct(toks[i + 1], "("))
                continue;
            // Find `:` at depth 1 — a range-for, not a classic for.
            int depth = 1;
            std::size_t colon = 0;
            std::size_t close = 0;
            for (std::size_t j = i + 2;
                 j < toks.size() && depth > 0; ++j) {
                if (isPunct(toks[j], "("))
                    ++depth;
                else if (isPunct(toks[j], ")")) {
                    --depth;
                    if (depth == 0)
                        close = j;
                } else if (depth == 1 && colon == 0 &&
                           isPunct(toks[j], ":"))
                    colon = j;
                else if (depth == 1 && isPunct(toks[j], ";"))
                    break; // classic for
            }
            if (colon == 0 || close == 0)
                continue;
            for (std::size_t j = colon + 1; j < close; ++j) {
                const Token &t = toks[j];
                const bool direct = idIn(t, kUnorderedTypes);
                bool named = false;
                if (t.kind == TokenKind::Identifier)
                    for (const std::string &n : names)
                        if (t.text == n)
                            named = true;
                if (direct || named) {
                    report(out, path, *this, toks[i],
                           "range-for over unordered container '" +
                               t.text +
                               "'; iterate a sorted copy (hash "
                               "order is not reproducible)");
                    break;
                }
            }
        }
    }

  private:
    /** Names declared in this file with an unordered_* type. */
    static std::vector<std::string>
    declaredNames(const std::vector<Token> &toks)
    {
        std::vector<std::string> names;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            if (!idIn(toks[i], kUnorderedTypes))
                continue;
            std::size_t j = i + 1;
            if (j < toks.size() && isPunct(toks[j], "<")) {
                int depth = 1;
                for (++j; j < toks.size() && depth > 0; ++j) {
                    if (isPunct(toks[j], "<"))
                        ++depth;
                    else if (isPunct(toks[j], ">"))
                        --depth;
                    else if (isPunct(toks[j], ">>"))
                        depth -= 2;
                }
            }
            while (j < toks.size() &&
                   (isId(toks[j], "const") || isPunct(toks[j], "&") ||
                    isPunct(toks[j], "*")))
                ++j;
            if (j < toks.size() &&
                toks[j].kind == TokenKind::Identifier)
                names.push_back(toks[j].text);
        }
        return names;
    }
};

class NoUnguardedStatic final : public Rule
{
  public:
    std::string_view name() const override
    {
        return "no-unguarded-static";
    }
    Severity severity() const override { return Severity::Error; }
    std::string_view summary() const override
    {
        return "mutable static state in library code needs an "
               "atomic/mutex guard (or to not exist)";
    }
    bool appliesTo(std::string_view path) const override
    {
        return pathInDir(path, "src");
    }
    void check(std::string_view path, const LexedFile &lexed,
               std::vector<Finding> &out) const override
    {
        const auto &toks = lexed.tokens;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            if (!isId(toks[i], "static"))
                continue;
            if (declaresGuardedOrFunction(toks, i + 1))
                continue;
            report(out, path, *this, toks[i],
                   "mutable static state without an "
                   "atomic/mutex/const guard");
        }
    }

  private:
    /**
     * Scan the declaration after `static` up to its `;` or body
     * `{`. Guarded (const/constexpr/atomic/mutex/...), per-thread
     * (thread_local) and function declarations pass; everything
     * else is mutable shared state.
     */
    static bool
    declaresGuardedOrFunction(const std::vector<Token> &toks,
                              std::size_t start)
    {
        int pdepth = 0;
        bool sawAssign = false;
        bool function = false;
        for (std::size_t j = start; j < toks.size(); ++j) {
            const Token &t = toks[j];
            if (t.kind == TokenKind::Identifier) {
                if (t.text == "const" || t.text == "constexpr" ||
                    t.text == "constinit" ||
                    t.text == "thread_local" ||
                    t.text == "mutex" || t.text == "shared_mutex" ||
                    t.text == "recursive_mutex" ||
                    t.text == "once_flag" ||
                    t.text == "condition_variable" ||
                    t.text == "operator" ||
                    t.text.rfind("atomic", 0) == 0)
                    return true;
                continue;
            }
            if (isPunct(t, "="))
                sawAssign = true;
            else if (isPunct(t, "(")) {
                if (pdepth == 0 && !sawAssign && j > start &&
                    toks[j - 1].kind == TokenKind::Identifier)
                    function = true;
                ++pdepth;
            } else if (isPunct(t, ")"))
                --pdepth;
            else if (pdepth == 0 &&
                     (isPunct(t, ";") || isPunct(t, "{")))
                break;
        }
        return function;
    }
};

class NoSilentCatch final : public Rule
{
  public:
    std::string_view name() const override
    {
        return "no-silent-catch";
    }
    Severity severity() const override { return Severity::Error; }
    std::string_view summary() const override
    {
        return "catch (...) must rethrow or record the failure; "
               "swallowed errors corrupt sweeps silently";
    }
    bool appliesTo(std::string_view) const override { return true; }
    void check(std::string_view path, const LexedFile &lexed,
               std::vector<Finding> &out) const override
    {
        const auto &toks = lexed.tokens;
        for (std::size_t i = 0; i + 4 < toks.size(); ++i) {
            if (!isId(toks[i], "catch") ||
                !isPunct(toks[i + 1], "(") ||
                !isPunct(toks[i + 2], "...") ||
                !isPunct(toks[i + 3], ")") ||
                !isPunct(toks[i + 4], "{"))
                continue;
            int depth = 1;
            bool silent = true;
            for (std::size_t j = i + 5;
                 j < toks.size() && depth > 0; ++j) {
                const Token &t = toks[j];
                if (isPunct(t, "{"))
                    ++depth;
                else if (isPunct(t, "}"))
                    --depth;
                else if (t.kind == TokenKind::Identifier &&
                         t.text != "return" && t.text != "break" &&
                         t.text != "continue" && t.text != "true" &&
                         t.text != "false" && t.text != "nullptr")
                    silent = false; // rethrows or records something
            }
            if (silent)
                report(out, path, *this, toks[i],
                       "catch (...) swallows the error; rethrow "
                       "or record it (RunFailure/ledger)");
        }
    }
};

class NoRawThread final : public Rule
{
  public:
    std::string_view name() const override
    {
        return "no-raw-thread";
    }
    Severity severity() const override { return Severity::Error; }
    std::string_view summary() const override
    {
        return "std::thread/std::async only inside the "
               "deterministic-order executor (src/core/executor)";
    }
    bool appliesTo(std::string_view path) const override
    {
        // The executor IS the sanctioned parallelism layer.
        return path.find("src/core/executor.") ==
               std::string_view::npos;
    }
    void check(std::string_view path, const LexedFile &lexed,
               std::vector<Finding> &out) const override
    {
        const auto &toks = lexed.tokens;
        for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
            if (!isId(toks[i], "std") ||
                !isPunct(toks[i + 1], "::"))
                continue;
            const Token &t = toks[i + 2];
            const bool threadType =
                isId(t, "thread") || isId(t, "jthread");
            // `std::thread::hardware_concurrency()` and friends
            // query, they do not spawn.
            if (threadType && (i + 3 >= toks.size() ||
                               !isPunct(toks[i + 3], "::"))) {
                report(out, path, *this, t,
                       "raw std::" + t.text +
                           " outside src/core/executor; route "
                           "parallelism through the Executor");
                continue;
            }
            if (isId(t, "async") && i + 3 < toks.size() &&
                isPunct(toks[i + 3], "(")) {
                report(out, path, *this, t,
                       "std::async outside src/core/executor; "
                       "route parallelism through the Executor");
            }
        }
    }
};

class NoPointerHash final : public Rule
{
  public:
    std::string_view name() const override
    {
        return "no-pointer-hash";
    }
    Severity severity() const override { return Severity::Error; }
    std::string_view summary() const override
    {
        return "raw pointer values must not be hashed or cast to "
               "integers; addresses differ per run under ASLR";
    }
    bool appliesTo(std::string_view) const override { return true; }
    void check(std::string_view path, const LexedFile &lexed,
               std::vector<Finding> &out) const override
    {
        const auto &toks = lexed.tokens;
        for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
            if (isId(toks[i], "reinterpret_cast") &&
                isPunct(toks[i + 1], "<") &&
                launderArgs(toks, i + 1)) {
                report(out, path, *this, toks[i],
                       "reinterpret_cast of a pointer to an "
                       "integer; the address is ASLR-random and "
                       "not reproducible across runs");
                continue;
            }
            if (isId(toks[i], "hash") && isPunct(toks[i + 1], "<") &&
                pointerTemplateArg(toks, i + 1)) {
                report(out, path, *this, toks[i],
                       "std::hash over a pointer type hashes the "
                       "ASLR-random address, not the value");
            }
        }
    }

  private:
    /** Template-argument tokens of the <...> group starting at
     *  `open`, or an empty range when unterminated. Caps the scan so
     *  a stray `<` comparison cannot run away. */
    static std::pair<std::size_t, std::size_t>
    templateArgRange(const std::vector<Token> &toks,
                     std::size_t open)
    {
        int depth = 0;
        const std::size_t limit =
            std::min(toks.size(), open + 64);
        for (std::size_t j = open; j < limit; ++j) {
            if (isPunct(toks[j], "<"))
                ++depth;
            else if (isPunct(toks[j], ">"))
                --depth;
            else if (isPunct(toks[j], ">>"))
                depth -= 2;
            if (depth <= 0)
                return {open + 1, j};
        }
        return {open + 1, open + 1};
    }

    /** <integral> with no pointer declarator: pointer laundering. */
    static bool launderArgs(const std::vector<Token> &toks,
                            std::size_t open)
    {
        const auto [b, e] = templateArgRange(toks, open);
        bool integral = false;
        for (std::size_t j = b; j < e; ++j) {
            if (isPunct(toks[j], "*"))
                return false; // pointer-to-pointer cast
            if (idIn(toks[j], pointerLaunderTargets()))
                integral = true;
        }
        return integral;
    }

    /** <...*...>: hashing a pointer type. */
    static bool pointerTemplateArg(const std::vector<Token> &toks,
                                   std::size_t open)
    {
        const auto [b, e] = templateArgRange(toks, open);
        for (std::size_t j = b; j < e; ++j)
            if (isPunct(toks[j], "*"))
                return true;
        return false;
    }
};

} // namespace

std::string_view
severityName(Severity severity)
{
    return severity == Severity::Error ? "error" : "warning";
}

bool
pathInDir(std::string_view path, std::string_view dir)
{
    if (path.size() > dir.size() &&
        path.compare(0, dir.size(), dir) == 0 &&
        path[dir.size()] == '/')
        return true;
    std::string needle;
    needle.reserve(dir.size() + 2);
    needle += '/';
    needle += dir;
    needle += '/';
    return path.find(needle) != std::string_view::npos;
}

const std::vector<std::unique_ptr<Rule>> &
allRules()
{
    static const std::vector<std::unique_ptr<Rule>> rules = [] {
        std::vector<std::unique_ptr<Rule>> r;
        r.push_back(std::make_unique<NoWallclock>());
        r.push_back(std::make_unique<NoAmbientRng>());
        r.push_back(std::make_unique<NoUnorderedIteration>());
        r.push_back(std::make_unique<NoUnguardedStatic>());
        r.push_back(std::make_unique<NoSilentCatch>());
        r.push_back(std::make_unique<NoRawThread>());
        r.push_back(std::make_unique<NoPointerHash>());
        return r;
    }();
    return rules;
}

const std::vector<std::string_view> &
clockTypeNames()
{
    /** Host clock types whose mere mention is a hazard. */
    static const std::vector<std::string_view> names = {
        "steady_clock", "system_clock", "high_resolution_clock",
        "utc_clock",    "file_clock",
    };
    return names;
}

const std::vector<std::string_view> &
hostTimeCallNames()
{
    /** C time functions banned when called. */
    static const std::vector<std::string_view> names = {
        "time",      "clock",  "gettimeofday", "clock_gettime",
        "localtime", "gmtime", "mktime",       "strftime",
        "timespec_get",
    };
    return names;
}

const std::vector<std::string_view> &
pointerLaunderTargets()
{
    /** Integral destination types of a pointer-laundering cast. */
    static const std::vector<std::string_view> names = {
        "uintptr_t", "intptr_t",  "size_t",   "ptrdiff_t",
        "uint64_t",  "uint32_t",  "int64_t",  "uintmax_t",
        "long",      "unsigned",  "int",
    };
    return names;
}

bool
isRuleName(std::string_view name)
{
    for (const auto &rule : allRules())
        if (rule->name() == name)
            return true;
    return false;
}

} // namespace netchar::lint
