/**
 * @file
 * netchar-lint fixture tests: every rule's true-positive and
 * true-negative cases, pragma suppression semantics (including the
 * mandatory reason), deterministic report ordering and the JSON
 * schema.
 *
 * Fixtures are inline snippets linted through lintSource() under a
 * pretend path — the path drives per-rule directory scoping, so the
 * same snippet can be asserted flagged in src/sim and clean in
 * bench. The pragma marker inside fixtures is assembled from
 * "netchar-lint" plus ":" at runtime where needed only in comments;
 * string literals are never scanned, so writing it here is safe.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "../mutate.hh"
#include "lint/lexer.hh"
#include "lint/lint.hh"

namespace
{

using netchar::lint::Finding;
using netchar::lint::LintResult;
using netchar::lint::lintSource;

/** All rule names among `findings`, in report order. */
std::vector<std::string>
rulesOf(const LintResult &r)
{
    std::vector<std::string> names;
    for (const Finding &f : r.findings)
        names.push_back(f.rule);
    return names;
}

bool
hasRule(const LintResult &r, const std::string &rule)
{
    for (const Finding &f : r.findings)
        if (f.rule == rule)
            return true;
    return false;
}

// ---------------------------------------------------------------
// no-wallclock
// ---------------------------------------------------------------

TEST(NoWallclock, FlagsSteadyClockInSim)
{
    const auto r = lintSource("src/sim/fixture.cc",
                              "void f() {\n"
                              "  auto t = std::chrono::steady_clock"
                              "::now();\n"
                              "}\n");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].rule, "no-wallclock");
    EXPECT_EQ(r.findings[0].line, 2);
}

TEST(NoWallclock, FlagsClockAliasDeclaration)
{
    // The alias is the choke point a textual tool can see; the
    // later Clock::now() calls go through it.
    const auto r = lintSource(
        "src/trace/fixture.cc",
        "using Clock = std::chrono::high_resolution_clock;\n");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].rule, "no-wallclock");
}

TEST(NoWallclock, FlagsCTimeCalls)
{
    const auto r =
        lintSource("src/runtime/fixture.cc",
                   "long f() { return time(nullptr); }\n"
                   "void g(struct timeval *tv) "
                   "{ gettimeofday(tv, nullptr); }\n");
    EXPECT_EQ(r.findings.size(), 2u);
    EXPECT_TRUE(hasRule(r, "no-wallclock"));
}

TEST(NoWallclock, BenchMayReadHostTime)
{
    // bench/ measures host wall time on purpose; the rule is scoped
    // to the determinism-critical dirs.
    const auto r = lintSource(
        "bench/bench_fixture.cc",
        "auto t = std::chrono::steady_clock::now();\n");
    EXPECT_TRUE(r.findings.empty());
}

TEST(NoWallclock, ChronoDurationsAreFine)
{
    const auto r = lintSource(
        "src/sim/fixture.cc",
        "auto d = std::chrono::microseconds(5);\n"
        "double runtime = cycles / frequency;\n");
    EXPECT_TRUE(r.findings.empty());
}

TEST(NoWallclock, MentionInCommentOrStringIgnored)
{
    const auto r = lintSource(
        "src/sim/fixture.cc",
        "// steady_clock::now() would be wrong here\n"
        "const char *warning = \"steady_clock is banned\";\n");
    EXPECT_TRUE(r.findings.empty());
}

TEST(NoWallclock, AppliesToAllOfSrc)
{
    // No src/ directory is exempt: serve and lint time through
    // hostSeconds() like the rest.
    for (const char *path : {"src/serve/fx.cc", "src/lint/fx.cc"}) {
        const auto r = lintSource(
            path, "auto t = std::chrono::steady_clock::now();\n");
        ASSERT_EQ(r.findings.size(), 1u) << path;
        EXPECT_EQ(r.findings[0].rule, "no-wallclock") << path;
    }
}

TEST(NoWallclock, TheOneClockFileIsExempt)
{
    const auto r = lintSource(
        "src/stats/hostclock.cc",
        "double hostSeconds() {\n"
        "  return std::chrono::duration<double>(\n"
        "      std::chrono::steady_clock::now().time_since_epoch())\n"
        "      .count();\n"
        "}\n");
    EXPECT_TRUE(r.findings.empty());
}

// ---------------------------------------------------------------
// no-ambient-rng
// ---------------------------------------------------------------

TEST(NoAmbientRng, FlagsRandAndSrand)
{
    const auto r = lintSource("tools/fixture.cc",
                              "int f() { srand(42); return rand(); }\n");
    EXPECT_EQ(r.findings.size(), 2u);
    EXPECT_TRUE(hasRule(r, "no-ambient-rng"));
}

TEST(NoAmbientRng, FlagsRandomDeviceAnywhere)
{
    const auto r = lintSource("bench/fixture.cc",
                              "std::random_device rd;\n");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].rule, "no-ambient-rng");
}

TEST(NoAmbientRng, FlagsArglessEngines)
{
    EXPECT_TRUE(hasRule(
        lintSource("src/stats/fixture.cc", "std::mt19937 gen;\n"),
        "no-ambient-rng"));
    EXPECT_TRUE(hasRule(
        lintSource("src/stats/fixture.cc", "std::mt19937 gen{};\n"),
        "no-ambient-rng"));
    EXPECT_TRUE(hasRule(
        lintSource("src/stats/fixture.cc",
                   "auto x = std::mt19937()();\n"),
        "no-ambient-rng"));
}

TEST(NoAmbientRng, SeededEnginesAndReferencesPass)
{
    EXPECT_TRUE(lintSource("src/stats/fixture.cc",
                           "std::mt19937 gen(seed);\n")
                    .findings.empty());
    EXPECT_TRUE(lintSource("src/stats/fixture.cc",
                           "std::mt19937 gen{seed};\n")
                    .findings.empty());
    EXPECT_TRUE(lintSource("src/stats/fixture.cc",
                           "void shuffle(std::mt19937 &gen);\n")
                    .findings.empty());
}

// ---------------------------------------------------------------
// no-unordered-iteration
// ---------------------------------------------------------------

TEST(NoUnorderedIteration, FlagsRangeForOverDeclaredMap)
{
    const auto r = lintSource(
        "src/core/fixture.cc",
        "std::unordered_map<std::string, int> counts;\n"
        "void dump() {\n"
        "  for (const auto &kv : counts)\n"
        "    emit(kv.first);\n"
        "}\n");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].rule, "no-unordered-iteration");
    EXPECT_EQ(r.findings[0].line, 3);
}

TEST(NoUnorderedIteration, FlagsMemberIteration)
{
    const auto r = lintSource(
        "src/sim/fixture.hh",
        "class C {\n"
        "  std::unordered_set<std::uint64_t> &pages_;\n"
        "  void walk() { for (auto p : pages_) touch(p); }\n"
        "};\n");
    EXPECT_TRUE(hasRule(r, "no-unordered-iteration"));
}

TEST(NoUnorderedIteration, OrderedAndLookupUsesPass)
{
    const auto r = lintSource(
        "src/core/fixture.cc",
        "std::unordered_map<std::string, int> counts;\n"
        "std::vector<int> v;\n"
        "void f() {\n"
        "  for (int x : v) use(x);\n"
        "  auto it = counts.find(\"a\");\n"
        "  for (int i = 0; i < 3; ++i) use(i);\n"
        "}\n");
    EXPECT_TRUE(r.findings.empty());
}

// ---------------------------------------------------------------
// no-unguarded-static
// ---------------------------------------------------------------

TEST(NoUnguardedStatic, FlagsMutableStatics)
{
    EXPECT_TRUE(hasRule(lintSource("src/core/fixture.cc",
                                   "static int counter = 0;\n"),
                        "no-unguarded-static"));
    EXPECT_TRUE(hasRule(
        lintSource("src/core/fixture.cc",
                   "void f() { static std::vector<int> cache; }\n"),
        "no-unguarded-static"));
}

TEST(NoUnguardedStatic, GuardedAndImmutableStaticsPass)
{
    const auto r = lintSource(
        "src/core/fixture.cc",
        "static const int kTableSize = 64;\n"
        "static constexpr double kEps = 1e-9;\n"
        "static std::atomic<int> hits{0};\n"
        "static std::mutex registryMutex;\n"
        "static thread_local int workerId = -1;\n");
    EXPECT_TRUE(r.findings.empty());
}

TEST(NoUnguardedStatic, StaticFunctionsAndCastsPass)
{
    const auto r = lintSource(
        "src/core/fixture.hh",
        "class C {\n"
        "  static C fromRows(int n);\n"
        "  static int helper() { return 3; }\n"
        "};\n"
        "int g(long v) { return static_cast<int>(v); }\n");
    EXPECT_TRUE(r.findings.empty());
}

TEST(NoUnguardedStatic, ScopedToLibraryCode)
{
    // Tool/bench mains own their process; the rule audits the
    // libraries.
    EXPECT_TRUE(lintSource("tools/fixture.cc",
                           "static int verbosity = 0;\n")
                    .findings.empty());
}

// ---------------------------------------------------------------
// no-silent-catch
// ---------------------------------------------------------------

TEST(NoSilentCatch, FlagsSwallowedErrors)
{
    EXPECT_TRUE(hasRule(
        lintSource("src/core/fixture.cc",
                   "void f() { try { g(); } catch (...) {} }\n"),
        "no-silent-catch"));
    EXPECT_TRUE(hasRule(
        lintSource("tools/fixture.cc",
                   "bool f() { try { g(); } catch (...) "
                   "{ return false; } return true; }\n"),
        "no-silent-catch"));
}

TEST(NoSilentCatch, RethrowOrRecordPasses)
{
    EXPECT_TRUE(
        lintSource("src/core/fixture.cc",
                   "void f() { try { g(); } catch (...) "
                   "{ throw; } }\n")
            .findings.empty());
    EXPECT_TRUE(
        lintSource("src/core/fixture.cc",
                   "void f() { try { g(); } catch (...) "
                   "{ failures.emplace_back(i, "
                   "std::current_exception()); } }\n")
            .findings.empty());
}

// ---------------------------------------------------------------
// no-raw-thread
// ---------------------------------------------------------------

TEST(NoRawThread, FlagsThreadAndAsync)
{
    EXPECT_TRUE(hasRule(
        lintSource("src/stats/pca_fixture.cc",
                   "void f() { std::thread t(work); t.join(); }\n"),
        "no-raw-thread"));
    EXPECT_TRUE(hasRule(
        lintSource("src/core/fixture.cc",
                   "auto fut = std::async(std::launch::async, w);\n"),
        "no-raw-thread"));
    EXPECT_TRUE(hasRule(
        lintSource("src/core/fixture.hh",
                   "std::vector<std::thread> workers_;\n"),
        "no-raw-thread"));
}

TEST(NoRawThread, QueriesAndExecutorPass)
{
    EXPECT_TRUE(
        lintSource("src/core/fixture.cc",
                   "unsigned n = std::thread"
                   "::hardware_concurrency();\n")
            .findings.empty());
    EXPECT_TRUE(
        lintSource("src/core/fixture.cc",
                   "std::this_thread::sleep_for(us);\n")
            .findings.empty());
    // The executor is the sanctioned home of raw threads.
    EXPECT_TRUE(
        lintSource("src/core/executor.hh",
                   "std::vector<std::thread> workers_;\n")
            .findings.empty());
}

// ---------------------------------------------------------------
// no-pointer-hash
// ---------------------------------------------------------------

TEST(NoPointerHash, FlagsPointerToIntegerCast)
{
    const auto r = lintSource(
        "src/core/fixture.cc",
        "std::uint64_t key(const Node *n) {\n"
        "  return reinterpret_cast<std::uint64_t>(n);\n"
        "}\n");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].rule, "no-pointer-hash");
    EXPECT_EQ(r.findings[0].line, 2);
}

TEST(NoPointerHash, FlagsUintptrCastAnywhere)
{
    // Unlike no-wallclock this rule has no sanctioned directory:
    // an ASLR-random value is wrong in bench output too.
    EXPECT_TRUE(hasRule(
        lintSource("bench/fixture.cc",
                   "auto v = reinterpret_cast<std::uintptr_t>(p);\n"),
        "no-pointer-hash"));
    EXPECT_TRUE(hasRule(
        lintSource("tests/fixture.cc",
                   "auto v = reinterpret_cast<intptr_t>(p);\n"),
        "no-pointer-hash"));
}

TEST(NoPointerHash, FlagsStdHashOverPointer)
{
    EXPECT_TRUE(hasRule(
        lintSource("src/core/fixture.cc",
                   "std::size_t h = std::hash<void *>{}(p);\n"),
        "no-pointer-hash"));
    EXPECT_TRUE(hasRule(
        lintSource("src/core/fixture.cc",
                   "std::size_t h = std::hash<const Node *>()(n);\n"),
        "no-pointer-hash"));
}

TEST(NoPointerHash, PointerAndValueCastsPass)
{
    const auto r = lintSource(
        "src/core/fixture.cc",
        "auto *b = reinterpret_cast<std::byte *>(p);\n"
        "auto *c = reinterpret_cast<const char *>(p);\n"
        "std::size_t h = std::hash<std::string>{}(name);\n"
        "int v = static_cast<int>(x);\n");
    EXPECT_TRUE(r.findings.empty());
}

// ---------------------------------------------------------------
// pragma suppression
// ---------------------------------------------------------------

TEST(Pragma, SuppressesOnSameLine)
{
    const auto r = lintSource(
        "src/sim/fixture.cc",
        "auto t = std::chrono::steady_clock::now(); "
        "// netchar-lint: allow(no-wallclock) -- test fixture\n");
    EXPECT_TRUE(r.findings.empty());
    EXPECT_EQ(r.suppressedCount, 1u);
}

TEST(Pragma, SuppressesOnNextLine)
{
    const auto r = lintSource(
        "src/sim/fixture.cc",
        "// netchar-lint: allow(no-wallclock) -- test fixture\n"
        "auto t = std::chrono::steady_clock::now();\n");
    EXPECT_TRUE(r.findings.empty());
    EXPECT_EQ(r.suppressedCount, 1u);
}

TEST(Pragma, DoesNotReachPastAdjacentLine)
{
    const auto r = lintSource(
        "src/sim/fixture.cc",
        "// netchar-lint: allow(no-wallclock) -- too far away\n"
        "\n"
        "auto t = std::chrono::steady_clock::now();\n");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].rule, "no-wallclock");
    EXPECT_EQ(r.suppressedCount, 0u);
}

TEST(Pragma, OnlySuppressesNamedRule)
{
    const auto r = lintSource(
        "src/sim/fixture.cc",
        "// netchar-lint: allow(no-ambient-rng) -- wrong rule\n"
        "auto t = std::chrono::steady_clock::now();\n");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].rule, "no-wallclock");
}

TEST(Pragma, ReasonIsMandatory)
{
    const auto r = lintSource(
        "src/sim/fixture.cc",
        "// netchar-lint: allow(no-wallclock)\n"
        "auto t = std::chrono::steady_clock::now();\n");
    // The reasonless pragma suppresses nothing and is itself a
    // finding.
    ASSERT_EQ(r.findings.size(), 2u);
    EXPECT_EQ(rulesOf(r),
              (std::vector<std::string>{"bad-pragma",
                                        "no-wallclock"}));
    EXPECT_EQ(r.suppressedCount, 0u);
}

TEST(Pragma, EmptyReasonAfterDashesRejected)
{
    const auto r = lintSource(
        "src/sim/fixture.cc",
        "// netchar-lint: allow(no-wallclock) --   \n"
        "auto t = std::chrono::steady_clock::now();\n");
    EXPECT_EQ(rulesOf(r),
              (std::vector<std::string>{"bad-pragma",
                                        "no-wallclock"}));
}

TEST(Pragma, UnknownRuleRejected)
{
    // A typo, and the two deleted concurrency rules.
    for (const std::string rule :
         {"no-such-rule", "guard-discipline", "atomic-mixed-access"}) {
        const auto r = lintSource(
            "src/core/fixture.cc",
            "// netchar-lint: allow(" + rule + ") -- reason\n"
            "int x;\n");
        ASSERT_EQ(r.findings.size(), 1u) << rule;
        EXPECT_EQ(r.findings[0].rule, "bad-pragma") << rule;
    }
}

TEST(Pragma, CommaListSuppressesSeveralRules)
{
    const auto r = lintSource(
        "src/sim/fixture.cc",
        "// netchar-lint: allow(no-wallclock,no-ambient-rng) -- "
        "fixture exercising both\n"
        "auto t = std::chrono::steady_clock::now(); "
        "std::random_device rd;\n");
    EXPECT_TRUE(r.findings.empty());
    EXPECT_EQ(r.suppressedCount, 2u);
}

TEST(Pragma, BlockCommentFormWorks)
{
    const auto r = lintSource(
        "src/sim/fixture.cc",
        "/* netchar-lint: allow(no-wallclock) -- block form */\n"
        "auto t = std::chrono::steady_clock::now();\n");
    EXPECT_TRUE(r.findings.empty());
    EXPECT_EQ(r.suppressedCount, 1u);
}

// ---------------------------------------------------------------
// report determinism and rendering
// ---------------------------------------------------------------

TEST(Report, FindingsSortedByFileLineRule)
{
    // Two rules firing out of textual order in one file.
    const auto r = lintSource(
        "src/sim/fixture.cc",
        "std::random_device rd;\n"
        "auto t = std::chrono::steady_clock::now();\n"
        "void f() { try { g(); } catch (...) {} }\n");
    EXPECT_EQ(rulesOf(r),
              (std::vector<std::string>{"no-ambient-rng",
                                        "no-wallclock",
                                        "no-silent-catch"}));
    EXPECT_EQ(r.findings[0].line, 1);
    EXPECT_EQ(r.findings[1].line, 2);
    EXPECT_EQ(r.findings[2].line, 3);
}

TEST(Report, TextRenderingIsStable)
{
    const std::string src =
        "auto t = std::chrono::steady_clock::now();\n";
    const auto a = lintSource("src/sim/fixture.cc", src);
    const auto b = lintSource("src/sim/fixture.cc", src);
    EXPECT_EQ(netchar::lint::renderText(a),
              netchar::lint::renderText(b));
    const std::string text = netchar::lint::renderText(a);
    EXPECT_NE(text.find("src/sim/fixture.cc:1: no-wallclock: "),
              std::string::npos);
    EXPECT_NE(text.find("1 finding(s) (1 error(s), 0 warning(s))"),
              std::string::npos);
}

TEST(Report, JsonSchema)
{
    const auto r = lintSource(
        "src/sim/fixture.cc",
        "auto t = std::chrono::steady_clock::now();\n");
    const std::string json = netchar::lint::renderJson(r);
    EXPECT_NE(json.find("\"version\": 4"), std::string::npos);
    EXPECT_NE(json.find("\"filesScanned\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"rule\": \"no-wallclock\""),
              std::string::npos);
    EXPECT_NE(json.find("\"severity\": \"error\""),
              std::string::npos);
    EXPECT_NE(json.find("\"line\": 1"), std::string::npos);
    // Balanced braces/brackets (structural sanity).
    long braces = 0;
    long brackets = 0;
    bool inString = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (c == '"' && (i == 0 || json[i - 1] != '\\'))
            inString = !inString;
        if (inString)
            continue;
        braces += c == '{' ? 1 : c == '}' ? -1 : 0;
        brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    }
    EXPECT_FALSE(inString);
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

TEST(Report, JsonEmptyFindingsList)
{
    const auto r = lintSource("src/sim/fixture.cc", "int x = 1;\n");
    const std::string json = netchar::lint::renderJson(r);
    EXPECT_NE(json.find("\"findings\": []"), std::string::npos);
    EXPECT_NE(json.find("\"counts\": {\"error\": 0, \"warning\": 0}"),
              std::string::npos);
}

// ---------------------------------------------------------------
// lexer robustness
// ---------------------------------------------------------------

TEST(Lexer, RawStringsAndEscapesAreOpaque)
{
    const auto r = lintSource(
        "src/sim/fixture.cc",
        "const char *a = R\"(steady_clock::now() rand())\";\n"
        "const char *b = \"catch (...) {}\\\"\";\n"
        "char c = '\\'';\n");
    EXPECT_TRUE(r.findings.empty());
}

TEST(Lexer, BlockCommentsAreOpaque)
{
    const auto r = lintSource(
        "src/sim/fixture.cc",
        "/* std::random_device rd;\n"
        "   auto t = std::chrono::steady_clock::now(); */\n"
        "int x = 1;\n");
    EXPECT_TRUE(r.findings.empty());
}

TEST(Lexer, UnterminatedConstructsDoNotLoop)
{
    // Malformed input must terminate (the compiler rejects it; the
    // linter just has to survive it).
    EXPECT_TRUE(lintSource("src/sim/fixture.cc",
                           "/* unterminated comment\n")
                    .findings.empty());
    (void)lintSource("src/sim/fixture.cc", "const char *s = \"open\n");
    (void)lintSource("src/sim/fixture.cc", "auto r = R\"(open\n");
}

TEST(Lexer, LineContinuationInsidePragma)
{
    // Translation phase 2: a backslash-newline splices the pragma
    // comment onto one logical line; the rule list and reason may
    // straddle the physical break.
    const auto r = lintSource(
        "src/sim/fixture.cc",
        "// netchar-lint: allow(no-wallclock) \\\n"
        "   -- continuation-carried reason\n"
        "auto t = std::chrono::steady_clock::now();\n");
    EXPECT_TRUE(r.findings.empty());
    EXPECT_EQ(r.suppressedCount, 1u);
}

TEST(Lexer, LineContinuationInPreprocessorDirective)
{
    // The continuation backslash must not surface as a stray
    // punctuator or split identifiers across the splice.
    const auto r = lintSource(
        "src/sim/fixture.cc",
        "#define MAKE_THING(name) \\\n"
        "  int name##_field = 0;\n"
        "int x = 1;\n");
    EXPECT_TRUE(r.findings.empty());
}

TEST(Lexer, SplicedIdentifierIsNotAMatch)
{
    // `ra\<newline>nd(` must not be reported as rand(): the splice
    // joins the halves into one identifier `rand`... which IS rand.
    // The inverse case: a splice inside a banned name still forms
    // the banned name, so the rule fires exactly once.
    const auto r = lintSource("src/sim/fixture.cc",
                              "int f() { return ra\\\nnd(); }\n");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].rule, "no-ambient-rng");
}

TEST(Lexer, RawStringPrefixesAreOpaque)
{
    const auto r = lintSource(
        "src/sim/fixture.cc",
        "const char *a = u8R\"(rand() steady_clock)\";\n"
        "const auto *b = LR\"x(std::random_device rd;)x\";\n"
        "const auto *c = uR\"y(catch (...) {})y\";\n");
    EXPECT_TRUE(r.findings.empty());
}

TEST(Lexer, RawStringDelimiterEdgeCases)
{
    // A quote or close-paren inside the raw body only ends the
    // literal when followed by the exact delimiter.
    const auto r = lintSource(
        "src/sim/fixture.cc",
        "const char *a = R\"d(contains )\" and )other( "
        "rand())d\";\n"
        "int x = 1;\n");
    EXPECT_TRUE(r.findings.empty());
}

TEST(RuleRegistry, NamesAndScopes)
{
    using netchar::lint::isRuleIn;
    using netchar::lint::RuleFamily;
    EXPECT_TRUE(isRuleIn("no-wallclock", RuleFamily::Token));
    EXPECT_TRUE(isRuleIn("no-raw-thread", RuleFamily::Token));
    EXPECT_TRUE(isRuleIn("no-pointer-hash", RuleFamily::Token));
    EXPECT_FALSE(isRuleIn("bad-pragma", RuleFamily::Token));
    EXPECT_FALSE(isRuleIn("flow-wallclock", RuleFamily::Token));
    EXPECT_FALSE(isRuleIn("no-such-rule", RuleFamily::Token));
    EXPECT_TRUE(netchar::lint::pathInDir("src/sim/core.cc",
                                         "src/sim"));
    EXPECT_TRUE(netchar::lint::pathInDir(
        "/root/repo/src/sim/core.cc", "src/sim"));
    EXPECT_FALSE(netchar::lint::pathInDir("src/simx/core.cc",
                                          "src/sim"));
    // --list-rules prints every row of the rule table, in order, and
    // nothing else. (Taint.SarifRuleDescriptorsArePinned pins the
    // SARIF rule metadata.)
    EXPECT_EQ(netchar::lint::listRulesText(),
              "no-wallclock (error): host clocks are banned in src/ "
              "outside src/stats/hostclock.cc (hostSeconds); results must "
              "derive from simulated cycles\n"
              "no-ambient-rng (error): randomness must flow from an "
              "explicit seed: no rand(), random_device or argless engines\n"
              "no-unordered-iteration (error): range-for over unordered "
              "containers visits hash order, which leaks into exported "
              "output\n"
              "no-unguarded-static (error): mutable static state in "
              "library code needs an atomic/mutex guard (or to not exist)\n"
              "no-silent-catch (error): catch (...) must rethrow or "
              "record the failure; swallowed errors corrupt sweeps "
              "silently\n"
              "no-raw-thread (error): std::thread/std::async only inside "
              "the deterministic-order executor (src/core/executor)\n"
              "no-pointer-hash (error): raw pointer values must not be "
              "hashed or cast to integers; addresses differ per run under "
              "ASLR\n"
              "bad-pragma (error): reserved - a netchar-lint pragma that "
              "is malformed, lacks a reason, or names an unknown rule\n"
              "flow-wallclock (error): a host-clock value flows into "
              "serialized output\n"
              "flow-env (error): an environment-variable value flows into "
              "serialized output\n"
              "flow-threadid (error): a thread-id value flows into "
              "serialized output\n"
              "race-shared-write (error): write to a mutable static or "
              "by-reference-captured object reachable from executor tasks "
              "with an empty lockset\n"
              "lock-leak (error): raw .lock() with no .unlock() on some "
              "path to the function exit (use "
              "lock_guard/scoped_lock/unique_lock)\n");
}

TEST(Lexer, DigitSeparatorsAreOneToken)
{
    const auto lexed = netchar::lint::lex(
        "int a = 1'000'000;\n"
        "unsigned long long b = 0xDEAD'BEEFull;\n"
        "int c = 0b1010'0101;\n");
    std::vector<std::string> numbers;
    for (const auto &t : lexed.tokens)
        if (t.kind == netchar::lint::TokenKind::Number)
            numbers.emplace_back(t.text);
    ASSERT_EQ(numbers.size(), 3u);
    EXPECT_EQ(numbers[0], "1'000'000");
    EXPECT_EQ(numbers[1], "0xDEAD'BEEFull");
    EXPECT_EQ(numbers[2], "0b1010'0101");
}

TEST(Lexer, HexFloatsAreOneToken)
{
    const auto lexed = netchar::lint::lex(
        "double a = 0x1.8p-3;\n"
        "double b = 0X1.FP+2;\n"
        "double c = 0x1p4;\n");
    std::vector<std::string> numbers;
    for (const auto &t : lexed.tokens)
        if (t.kind == netchar::lint::TokenKind::Number)
            numbers.emplace_back(t.text);
    ASSERT_EQ(numbers.size(), 3u);
    EXPECT_EQ(numbers[0], "0x1.8p-3");
    EXPECT_EQ(numbers[1], "0X1.FP+2");
    EXPECT_EQ(numbers[2], "0x1p4");
}

TEST(Lexer, BareQuoteAfterDigitOpensCharLiteral)
{
    // `f(1,'a')` must not swallow `,'a'` into the number: the
    // separator rule requires an alphanumeric after the quote.
    const auto lexed = netchar::lint::lex("f(1, 'a');\nint x = 1;'b';\n");
    std::vector<std::pair<netchar::lint::TokenKind, std::string>> got;
    for (const auto &t : lexed.tokens)
        if (t.kind == netchar::lint::TokenKind::Number ||
            t.kind == netchar::lint::TokenKind::CharLit)
            got.emplace_back(t.kind, t.text);
    ASSERT_EQ(got.size(), 4u);
    EXPECT_EQ(got[0].first, netchar::lint::TokenKind::Number);
    EXPECT_EQ(got[0].second, "1");
    EXPECT_EQ(got[1].first, netchar::lint::TokenKind::CharLit);
    EXPECT_EQ(got[2].first, netchar::lint::TokenKind::Number);
    EXPECT_EQ(got[3].first, netchar::lint::TokenKind::CharLit);
}

// ---------------------------------------------------------------
// token stream: pinned and fuzzed
// ---------------------------------------------------------------

struct PinnedToken
{
    netchar::lint::TokenKind kind;
    const char *text;
    int line;
    int column;
};

TEST(Lexer, TokenStreamIsPinned)
{
    // Every whitespace byte (tab, \v, \f, CR-LF), a byte >= 0x80, a
    // `\` that is not a splice, identifiers spliced across LF and
    // CR-LF, the raw-string prefixes, numbers with separators and
    // exponent signs, every multi-byte punctuator beside its one-byte
    // prefixes, and a string left open at end of file.
    const std::string source =
    "int\tmain()\v{\f\r\n"
    "  auto caf\xc3\xa9 = 1;\r\n"
    "  abc\\ def ra\\\nnd(); x\\\r\ny;\n"
    "  R\"(a)\" u8R\"d(b)\")d\" LR\"(c)\" R x u8\"s\" L'c';\n"
    "  1'000 0x1fp+2 1.5e-3 .5 1\\\n2 0b1010'0101u f(1,'a');\n"
    "  <<= >>= <=> ->* ... :: -> << >> <= >= == != && || += -= *= /="
    " %= ++ --\n"
    "  < > - . : = ! & | + * / % ( ) ; , ?\n"
    "  <<<= a->*b x<=>y .. ::: --- #if\n"
    "  // line comment\n"
    "  /* block\n   comment */ z;\n"
    "  \"esc\\\"aped\" '\\''\n"
    "  \"unterminated";
    using K = netchar::lint::TokenKind;
    const std::vector<PinnedToken> want = {
        {K::Identifier, "int", 1, 1},
        {K::Identifier, "main", 1, 5},
        {K::Punct, "(", 1, 9},
        {K::Punct, ")", 1, 10},
        {K::Punct, "{", 1, 12},
        {K::Identifier, "auto", 2, 3},
        {K::Identifier, "caf", 2, 8},
        {K::Punct, "\xc3", 2, 11},
        {K::Punct, "\xa9", 2, 12},
        {K::Punct, "=", 2, 14},
        {K::Number, "1", 2, 16},
        {K::Punct, ";", 2, 17},
        {K::Identifier, "abc", 3, 3},
        {K::Punct, "\\", 3, 6},
        {K::Identifier, "def", 3, 8},
        {K::Identifier, "rand", 3, 12},
        {K::Punct, "(", 4, 3},
        {K::Punct, ")", 4, 4},
        {K::Punct, ";", 4, 5},
        {K::Identifier, "xy", 4, 7},
        {K::Punct, ";", 5, 2},
        {K::String, "<raw-string>", 6, 3},
        {K::String, "<raw-string>", 6, 10},
        {K::String, "<raw-string>", 6, 23},
        {K::Identifier, "R", 6, 31},
        {K::Identifier, "x", 6, 33},
        {K::Identifier, "u8", 6, 35},
        {K::String, "<string>", 6, 37},
        {K::Identifier, "L", 6, 41},
        {K::CharLit, "<char>", 6, 42},
        {K::Punct, ";", 6, 45},
        {K::Number, "1'000", 7, 3},
        {K::Number, "0x1fp+2", 7, 9},
        {K::Number, "1.5e-3", 7, 17},
        {K::Number, ".5", 7, 24},
        {K::Number, "12", 7, 27},
        {K::Number, "0b1010'0101u", 8, 3},
        {K::Identifier, "f", 8, 16},
        {K::Punct, "(", 8, 17},
        {K::Number, "1", 8, 18},
        {K::Punct, ",", 8, 19},
        {K::CharLit, "<char>", 8, 20},
        {K::Punct, ")", 8, 23},
        {K::Punct, ";", 8, 24},
        {K::Punct, "<<=", 9, 3},
        {K::Punct, ">>=", 9, 7},
        {K::Punct, "<=>", 9, 11},
        {K::Punct, "->*", 9, 15},
        {K::Punct, "...", 9, 19},
        {K::Punct, "::", 9, 23},
        {K::Punct, "->", 9, 26},
        {K::Punct, "<<", 9, 29},
        {K::Punct, ">>", 9, 32},
        {K::Punct, "<=", 9, 35},
        {K::Punct, ">=", 9, 38},
        {K::Punct, "==", 9, 41},
        {K::Punct, "!=", 9, 44},
        {K::Punct, "&&", 9, 47},
        {K::Punct, "||", 9, 50},
        {K::Punct, "+=", 9, 53},
        {K::Punct, "-=", 9, 56},
        {K::Punct, "*=", 9, 59},
        {K::Punct, "/=", 9, 62},
        {K::Punct, "%=", 9, 65},
        {K::Punct, "++", 9, 68},
        {K::Punct, "--", 9, 71},
        {K::Punct, "<", 10, 3},
        {K::Punct, ">", 10, 5},
        {K::Punct, "-", 10, 7},
        {K::Punct, ".", 10, 9},
        {K::Punct, ":", 10, 11},
        {K::Punct, "=", 10, 13},
        {K::Punct, "!", 10, 15},
        {K::Punct, "&", 10, 17},
        {K::Punct, "|", 10, 19},
        {K::Punct, "+", 10, 21},
        {K::Punct, "*", 10, 23},
        {K::Punct, "/", 10, 25},
        {K::Punct, "%", 10, 27},
        {K::Punct, "(", 10, 29},
        {K::Punct, ")", 10, 31},
        {K::Punct, ";", 10, 33},
        {K::Punct, ",", 10, 35},
        {K::Punct, "?", 10, 37},
        {K::Punct, "<<", 11, 3},
        {K::Punct, "<=", 11, 5},
        {K::Identifier, "a", 11, 8},
        {K::Punct, "->*", 11, 9},
        {K::Identifier, "b", 11, 12},
        {K::Identifier, "x", 11, 14},
        {K::Punct, "<=>", 11, 15},
        {K::Identifier, "y", 11, 18},
        {K::Punct, ".", 11, 20},
        {K::Punct, ".", 11, 21},
        {K::Punct, "::", 11, 23},
        {K::Punct, ":", 11, 25},
        {K::Punct, "--", 11, 27},
        {K::Punct, "-", 11, 29},
        {K::Punct, "#", 11, 31},
        {K::Identifier, "if", 11, 32},
        {K::Identifier, "z", 14, 15},
        {K::Punct, ";", 14, 16},
        {K::String, "<string>", 15, 3},
        {K::CharLit, "<char>", 15, 15},
        {K::String, "<string>", 16, 3},
    };
    const auto lexed = netchar::lint::lex(source);
    ASSERT_EQ(lexed.tokens.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        const auto &t = lexed.tokens[i];
        EXPECT_EQ(t.kind, want[i].kind) << "token " << i;
        EXPECT_EQ(t.text, want[i].text) << "token " << i;
        EXPECT_EQ(t.line, want[i].line) << "token " << i;
        EXPECT_EQ(t.column, want[i].column) << "token " << i;
    }
    EXPECT_TRUE(lexed.pragmas.empty());
}

TEST(Lexer, SpliceJoinsAPpNumber)
{
    // Translation phase 2 removes a splice before tokenization, so
    // each of these is one number, as `ab\<LF>c` is one identifier.
    for (const std::string splice : {"\\\n", "\\\r\n"}) {
        const auto lexed =
            netchar::lint::lex("x = 1" + splice + "2 + 1e" + splice +
                               "+3;");
        ASSERT_EQ(lexed.tokens.size(), 6u);
        EXPECT_EQ(lexed.tokens[2].kind, netchar::lint::TokenKind::Number);
        EXPECT_EQ(lexed.tokens[2].text, "12");
        EXPECT_EQ(lexed.tokens[2].line, 1);
        EXPECT_EQ(lexed.tokens[4].text, "1e+3");
        EXPECT_EQ(lexed.tokens[4].line, 2);
        EXPECT_EQ(lexed.tokens[5].line, 3);
    }
}

TEST(Lexer, TokensOwnTheirBytes)
{
    // Identifiers spliced across LF and CR-LF, a pp-number spliced
    // before its exponent sign, and all three literal placeholders,
    // lexed from a buffer that is overwritten and freed at once.
    auto source = std::make_unique<std::string>(
        "int a\\\nb = 1\\\n2;\r\n"
        "auto c\\\r\nd = 0x1p\\\r\n+3 + e\\\n;\n"
        "s = u8\"str\"; r = LR\"x(raw)x\"; ch = L'q';\n");
    auto lexed = std::make_optional(netchar::lint::lex(*source));
    std::fill(source->begin(), source->end(), '#');
    source.reset();

    // Copy, drop the original, then move the copy through
    // parseFile and a reallocating vector of units.
    netchar::lint::LexedFile copy = *lexed;
    lexed.reset();
    std::vector<netchar::lint::FileUnit> units(1);
    units[0].model = netchar::lint::parseFile("src/a.cc", std::move(copy));
    const std::size_t capacity = units.capacity();
    while (units.capacity() == capacity)
        units.emplace_back();

    using K = netchar::lint::TokenKind;
    const std::vector<PinnedToken> want = {
        {K::Identifier, "int", 1, 1},
        {K::Identifier, "ab", 1, 5},
        {K::Punct, "=", 2, 3},
        {K::Number, "12", 2, 5},
        {K::Punct, ";", 3, 2},
        {K::Identifier, "auto", 4, 1},
        {K::Identifier, "cd", 4, 6},
        {K::Punct, "=", 5, 3},
        {K::Number, "0x1p+3", 5, 5},
        {K::Punct, "+", 6, 4},
        {K::Identifier, "e", 6, 6},
        {K::Punct, ";", 7, 1},
        {K::Identifier, "s", 8, 1},
        {K::Punct, "=", 8, 3},
        {K::Identifier, "u8", 8, 5},
        {K::String, "<string>", 8, 7},
        {K::Punct, ";", 8, 12},
        {K::Identifier, "r", 8, 14},
        {K::Punct, "=", 8, 16},
        {K::String, "<raw-string>", 8, 18},
        {K::Punct, ";", 8, 29},
        {K::Identifier, "ch", 8, 31},
        {K::Punct, "=", 8, 34},
        {K::Identifier, "L", 8, 36},
        {K::CharLit, "<char>", 8, 37},
        {K::Punct, ";", 8, 40},
    };
    const auto &toks = units.front().model.lexed.tokens;
    ASSERT_EQ(toks.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(toks[i].kind, want[i].kind) << "token " << i;
        EXPECT_EQ(toks[i].text, want[i].text) << "token " << i;
        EXPECT_EQ(toks[i].line, want[i].line) << "token " << i;
        EXPECT_EQ(toks[i].column, want[i].column) << "token " << i;
    }

    // Without a splice, every identifier, number and punctuator
    // views the owned copy at its own byte offset: no text was
    // copied out of it.
    const std::string plain =
        "int f(int x) {\n  return x <<= 0x1.8p-3 + 1'000;\n}\n";
    const auto owned = netchar::lint::lex(plain);
    const std::string &bytes = owned.bytes->source;
    ASSERT_EQ(bytes, plain);
    ASSERT_NE(bytes.data(), plain.data());
    std::vector<std::size_t> lineStart = {0};
    for (std::size_t at = 0; at < plain.size(); ++at)
        if (plain[at] == '\n')
            lineStart.push_back(at + 1);
    for (const auto &t : owned.tokens) {
        const std::size_t at =
            lineStart[static_cast<std::size_t>(t.line) - 1] +
            static_cast<std::size_t>(t.column) - 1;
        EXPECT_EQ(t.text.data(), bytes.data() + at)
            << "token '" << t.text << "' at " << t.line << ':'
            << t.column;
    }
    EXPECT_EQ(owned.tokens.size(), 15u);
}

TEST(LexerFuzz, TokensMatchTheirSource)
{
    const std::vector<std::string> seeds = {
        "#include <map>\n"
        "namespace n {\n"
        "int f(const std::map<int, long> &m, double d) {\n"
        "    auto x = m.at(1'000) + 0x1fp+2 * 1.5e-3;\n"
        "    if (x <= 3 && d != .5) return x->*p ... ;\n"
        "    s += \"ab\"; c = 'q'; r = R\"d(x)\")d\";\n"
        "    /* block */ return a::b<c>>=2; // tail\n"
        "}\n"
        "}\n",
        "#define M(a) \\\n  a##_x \\\r\n  + 1\n"
        "int sp\\\nlit = u8R\"(raw)\" L'c' 0b1010'01u;\n"
        "s = \"a\\\"b\"; c = '\\'';\n",
    };
    std::uint64_t state = 11;
    unsigned checked = 0;
    for (int i = 0; i < 3000; ++i) {
        const std::string text = netchar::test::mutate(
            seeds[static_cast<std::size_t>(i) % seeds.size()], state,
            "<>=-+*/%&|!:.;,(){}#'\"\\\n\r\t0123456789eExpPR_");
        const auto lexed = netchar::lint::lex(text);

        std::vector<std::size_t> lineStart = {0};
        for (std::size_t at = 0; at < text.size(); ++at)
            if (text[at] == '\n')
                lineStart.push_back(at + 1);
        const bool plain = text.find('\\') == std::string::npos;
        checked += plain ? 1u : 0u;
        int line = 0, column = 0;
        for (const auto &t : lexed.tokens) {
            ASSERT_TRUE(t.line > line ||
                        (t.line == line && t.column > column))
                << "input: " << text;
            line = t.line;
            column = t.column;
            ASSERT_LE(static_cast<std::size_t>(t.line), lineStart.size());
            const std::size_t at =
                lineStart[static_cast<std::size_t>(t.line) - 1] +
                static_cast<std::size_t>(t.column) - 1;
            ASSERT_LT(at, text.size()) << "input: " << text;
            if (!plain || t.kind == netchar::lint::TokenKind::String ||
                t.kind == netchar::lint::TokenKind::CharLit)
                continue;
            EXPECT_EQ(std::string_view(text).substr(at, t.text.size()),
                      t.text)
                << "input: " << text;
        }
    }
    // The first seed has no `\`, so most of its mutations are
    // text-checked: 1599 of these 3000 inputs.
    EXPECT_GT(checked, 1000u);
}

} // namespace
