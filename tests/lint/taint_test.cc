/**
 * @file
 * Taint-pass fixture tests: source→sink propagation within a
 * function, across functions (by return value and by parameter,
 * including cross-file through the call graph), sanitizer pragmas
 * (allow-flow and the allow() token alias), the whitelisted
 * run-ledger field, multi-path reporting, and the JSON/SARIF
 * renderings including their determinism.
 *
 * Fixtures use bench/ paths where possible: the no-wallclock token
 * rule does not apply there, so every reported finding is a flow
 * finding and the assertions stay sharp.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint/callgraph.hh"
#include "lint/lexer.hh"
#include "lint/lint.hh"
#include "lint/parser.hh"
#include "lint/sarif.hh"

namespace
{

using netchar::lint::Finding;
using netchar::lint::LintOptions;
using netchar::lint::LintResult;
using netchar::lint::lintSources;
using netchar::lint::SourceBuffer;

/** The findings that carry a taint path, in report order. */
std::vector<Finding>
flowsOf(const LintResult &r)
{
    std::vector<Finding> out;
    for (const Finding &f : r.findings)
        if (!f.path.empty())
            out.push_back(f);
    return out;
}

/** Balanced-brace/bracket structural check shared with the JSON
 *  schema test in lint_test.cc. */
void
expectStructurallyValidJson(const std::string &json)
{
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

// ---------------------------------------------------------------
// propagation
// ---------------------------------------------------------------

TEST(Taint, IntraproceduralChain)
{
    const auto r = lintSources(
        {{"bench/fx.cc",
          "void emit() {\n"
          "  auto t = std::chrono::steady_clock::now();\n"
          "  double s = t.time_since_epoch().count();\n"
          "  row += csvField(s);\n"
          "}\n"}});
    const auto flows = flowsOf(r);
    ASSERT_EQ(flows.size(), 1u);
    const Finding &f = flows[0];
    EXPECT_EQ(f.rule, "flow-wallclock");
    EXPECT_EQ(f.file, "bench/fx.cc");
    EXPECT_EQ(f.line, 4); // anchored at the sink
    ASSERT_EQ(f.path.size(), 4u);
    EXPECT_EQ(f.path[0].line, 2);
    EXPECT_NE(f.path[0].note.find("source: host clock"),
              std::string::npos);
    EXPECT_NE(f.path[1].note.find("'t' assigned"),
              std::string::npos);
    EXPECT_NE(f.path[2].note.find("'s' assigned"),
              std::string::npos);
    EXPECT_NE(f.path[3].note.find("sink: argument 1 of "
                                  "'csvField()'"),
              std::string::npos);
    EXPECT_NE(f.message.find("reaches serialization sink"),
              std::string::npos);
}

TEST(Taint, PropagatesThroughReturnValue)
{
    const auto r = lintSources(
        {{"bench/fx.cc",
          "double stamp() {\n"
          "  return std::chrono::system_clock::now()"
          ".time_since_epoch().count();\n"
          "}\n"
          "void emit() {\n"
          "  double s = stamp();\n"
          "  row += csvField(s);\n"
          "}\n"}});
    const auto flows = flowsOf(r);
    ASSERT_EQ(flows.size(), 1u);
    bool sawReturnHop = false;
    for (const auto &hop : flows[0].path)
        if (hop.note.find("returned from 'stamp()'") !=
            std::string::npos)
            sawReturnHop = true;
    EXPECT_TRUE(sawReturnHop);
}

TEST(Taint, PropagatesThroughParameterAcrossFiles)
{
    // Source in one file, sink behind a helper in another: only the
    // call graph connects them.
    const auto r = lintSources(
        {{"bench/fx_main.cc",
          "void emit() {\n"
          "  auto t = std::chrono::steady_clock::now();\n"
          "  writeRow(t);\n"
          "}\n"},
         {"bench/fx_util.cc",
          "void writeRow(double v) {\n"
          "  row += csvField(v);\n"
          "}\n"}});
    const auto flows = flowsOf(r);
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_EQ(flows[0].file, "bench/fx_util.cc");
    bool sawParamHop = false;
    for (const auto &hop : flows[0].path)
        if (hop.note.find("taints parameter 'v'") !=
            std::string::npos)
            sawParamHop = true;
    EXPECT_TRUE(sawParamHop);
}

TEST(Taint, HostSecondsIsASource)
{
    // The one sanctioned clock is exempt from no-wallclock, not from
    // the taint pass: its value reaching a sink in another file is a
    // flow finding that starts inside it.
    const auto r = lintSources(
        {{"src/stats/hostclock.cc",
          "double hostSeconds() {\n"
          "  return std::chrono::duration<double>(\n"
          "      std::chrono::steady_clock::now().time_since_epoch())\n"
          "      .count();\n"
          "}\n"},
         {"bench/fx.cc",
          "void emit() {\n"
          "  row += csvField(hostSeconds());\n"
          "}\n"}});
    ASSERT_EQ(r.findings.size(), 1u);
    const auto &f = r.findings[0];
    EXPECT_EQ(f.rule, "flow-wallclock");
    EXPECT_EQ(f.file, "bench/fx.cc");
    ASSERT_FALSE(f.path.empty());
    EXPECT_EQ(f.path.front().file, "src/stats/hostclock.cc");
}

TEST(Taint, DistinctSinksAreDistinctFlows)
{
    const auto r = lintSources(
        {{"bench/fx.cc",
          "void emit() {\n"
          "  auto t = std::chrono::steady_clock::now();\n"
          "  a += csvField(t);\n"
          "  b += jsonEscape(t);\n"
          "}\n"}});
    const auto flows = flowsOf(r);
    ASSERT_EQ(flows.size(), 2u);
    EXPECT_EQ(flows[0].line, 3);
    EXPECT_EQ(flows[1].line, 4);
}

TEST(Taint, ServeWireAndCacheBuildersAreSinks)
{
    // The serve-layer response/request builders serialize onto the
    // wire and into the content-addressed result cache; anything
    // nondeterministic reaching them is a finding.
    const auto r = lintSources(
        {{"bench/fx.cc",
          "void answer() {\n"
          "  auto t = std::chrono::steady_clock::now();\n"
          "  double s = t.time_since_epoch().count();\n"
          "  send(okResponse(\"stats\", s));\n"
          "  send(okCachedResponse(\"run\", s, key, body));\n"
          "  send(errorResponse(s));\n"
          "  wire += requestLine(s);\n"
          "  cache.insert(key, sweepBodyJson(s));\n"
          "}\n"}});
    const auto flows = flowsOf(r);
    ASSERT_EQ(flows.size(), 5u);
    for (const Finding &f : flows)
        EXPECT_EQ(f.rule, "flow-wallclock");
    EXPECT_NE(flows[0].message.find("okResponse"),
              std::string::npos);
    EXPECT_NE(flows[1].message.find("okCachedResponse"),
              std::string::npos);
    EXPECT_NE(flows[2].message.find("errorResponse"),
              std::string::npos);
    EXPECT_NE(flows[3].message.find("requestLine"),
              std::string::npos);
    EXPECT_NE(flows[4].message.find("sweepBodyJson"),
              std::string::npos);
}

TEST(Taint, UntaintedSerializationIsClean)
{
    const auto r = lintSources(
        {{"bench/fx.cc",
          "void emit() {\n"
          "  double cycles = sim.totalCycles();\n"
          "  row += csvField(cycles);\n"
          "}\n"}});
    EXPECT_TRUE(flowsOf(r).empty());
}

TEST(Taint, OtherSourceFamilies)
{
    const auto r = lintSources(
        {{"tools/fx.cc",
          "void emit() {\n"
          "  auto key = getenv(\"NETCHAR_KEY\");\n"
          "  row += csvField(key);\n"
          "}\n"}});
    const auto flows = flowsOf(r);
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_EQ(flows[0].rule, "flow-env");
}

TEST(Taint, RngAndPointerSourcesAreTokenFindings)
{
    // Ambient randomness and pointer-to-integer casts are token
    // findings wherever they appear, so the taint pass does not
    // trace them: each source below reaches a sink, yet the report
    // holds one token finding at the source line and no flow, and
    // an allow() on that line silences it.
    struct Source
    {
        const char *expr;
        const char *rule;
    };
    const Source sources[] = {
        {"rand()", "no-ambient-rng"},
        {"srand(7)", "no-ambient-rng"},
        {"rand_r(&seed)", "no-ambient-rng"},
        {"drand48()", "no-ambient-rng"},
        {"std::random_device{}()", "no-ambient-rng"},
        {"std::default_random_engine{}()", "no-ambient-rng"},
        {"reinterpret_cast<std::uintptr_t>(p)", "no-pointer-hash"},
    };
    for (const char *path : {"src/core/fx.cc", "bench/fx.cc",
                             "tools/fx.cc"}) {
        for (const Source &src : sources) {
            SCOPED_TRACE(std::string(path) + ": " + src.expr);
            const std::string body =
                std::string("  auto v = ") + src.expr + ";\n"
                "  row += csvField(v);\n"
                "}\n";
            const auto r =
                lintSources({{path, "void emit() {\n" + body}});
            ASSERT_EQ(r.findings.size(), 1u);
            EXPECT_EQ(r.findings[0].rule, src.rule);
            EXPECT_EQ(r.findings[0].line, 2);
            EXPECT_TRUE(r.findings[0].path.empty());

            const auto allowed = lintSources(
                {{path, "void emit() {\n"
                        "  // netchar-lint: allow(" +
                            std::string(src.rule) +
                            ") -- fixture\n" + body}});
            EXPECT_TRUE(allowed.findings.empty());
            EXPECT_EQ(allowed.suppressedCount, 1u);
        }
    }
}

// ---------------------------------------------------------------
// sanitizers
// ---------------------------------------------------------------

TEST(Taint, AllowFlowPragmaAtSourceSilences)
{
    const auto r = lintSources(
        {{"bench/fx.cc",
          "void emit() {\n"
          "  // netchar-lint: allow-flow(flow-wallclock) -- fixture\n"
          "  auto t = std::chrono::steady_clock::now();\n"
          "  row += csvField(t);\n"
          "}\n"}});
    EXPECT_TRUE(r.findings.empty());
}

TEST(Taint, AllowFlowPragmaAtSinkSilencesExactlyThatFlow)
{
    const auto r = lintSources(
        {{"bench/fx.cc",
          "void emit() {\n"
          "  auto t = std::chrono::steady_clock::now();\n"
          "  // netchar-lint: allow-flow(flow-wallclock) -- one ok\n"
          "  a += csvField(t);\n"
          "  b += jsonEscape(t);\n"
          "}\n"}});
    const auto flows = flowsOf(r);
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_EQ(flows[0].line, 5);
    EXPECT_EQ(r.suppressedCount, 1u);
}

TEST(Taint, TokenAllowPragmaAlsoSanitizesTheFlow)
{
    // One written exception serves both layers: the allow() that
    // suppresses the no-wallclock token finding sanitizes the
    // flow-wallclock source at the same site.
    const auto r = lintSources(
        {{"src/core/fx.cc",
          "void record() {\n"
          "  // netchar-lint: allow(no-wallclock) -- ledger site\n"
          "  auto t = std::chrono::steady_clock::now();\n"
          "  row += csvField(t);\n"
          "}\n"}});
    EXPECT_TRUE(r.findings.empty());
    EXPECT_EQ(r.suppressedCount, 1u); // the token finding
}

TEST(Taint, AllowFlowDoesNotSuppressTokenFindings)
{
    // allow-flow() speaks only for the taint layer; the token rule
    // still fires.
    const auto r = lintSources(
        {{"src/core/fx.cc",
          "// netchar-lint: allow-flow(flow-wallclock) -- flow only\n"
          "auto t = std::chrono::steady_clock::now();\n"}});
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].rule, "no-wallclock");
}

TEST(Taint, UnknownFlowRuleInPragmaIsBad)
{
    const auto r = lintSources(
        {{"src/core/fx.cc",
          "// netchar-lint: allow-flow(flow-bogus) -- typo\n"
          "int x = 1;\n"}});
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].rule, "bad-pragma");
    EXPECT_NE(r.findings[0].message.find("unknown flow rule"),
              std::string::npos);
}

TEST(Taint, WhitelistedLedgerFieldStopsTheFlow)
{
    // wallSeconds is the sanctioned wall-time carrier; an otherwise
    // identical field is not.
    const auto clean = lintSources(
        {{"bench/fx.cc",
          "void record(SuiteRunStats &st) {\n"
          "  auto t = std::chrono::steady_clock::now();\n"
          "  st.wallSeconds = t.time_since_epoch().count();\n"
          "  row += suiteStatsCsv(st);\n"
          "}\n"}});
    EXPECT_TRUE(flowsOf(clean).empty());

    const auto dirty = lintSources(
        {{"bench/fx.cc",
          "void record(SuiteRunStats &st) {\n"
          "  auto t = std::chrono::steady_clock::now();\n"
          "  st.stamp = t.time_since_epoch().count();\n"
          "  row += suiteStatsCsv(st);\n"
          "}\n"}});
    ASSERT_EQ(flowsOf(dirty).size(), 1u);
    EXPECT_EQ(flowsOf(dirty)[0].rule, "flow-wallclock");
}

TEST(Taint, OptOutDisablesThePass)
{
    LintOptions opts;
    opts.taint = false;
    const auto r = lintSources(
        {{"bench/fx.cc",
          "void emit() {\n"
          "  auto t = std::chrono::steady_clock::now();\n"
          "  row += csvField(t);\n"
          "}\n"}},
        opts);
    EXPECT_TRUE(r.findings.empty());
}

// ---------------------------------------------------------------
// rendering
// ---------------------------------------------------------------

TEST(Taint, TextReportListsHops)
{
    const auto r = lintSources(
        {{"bench/fx.cc",
          "void emit() {\n"
          "  auto t = std::chrono::steady_clock::now();\n"
          "  row += csvField(t);\n"
          "}\n"}});
    const std::string text = netchar::lint::renderText(r);
    EXPECT_NE(text.find("    #1 bench/fx.cc:2:"),
              std::string::npos);
    EXPECT_NE(text.find("sink: argument 1 of 'csvField()'"),
              std::string::npos);
}

TEST(Taint, JsonReportHasFlowsArray)
{
    const auto r = lintSources(
        {{"bench/fx.cc",
          "void emit() {\n"
          "  auto t = std::chrono::steady_clock::now();\n"
          "  row += csvField(t);\n"
          "}\n"}});
    const std::string json = netchar::lint::renderJson(r);
    EXPECT_NE(json.find("\"version\": 4"), std::string::npos);
    EXPECT_NE(json.find("\"flows\": ["), std::string::npos);
    EXPECT_NE(json.find("\"rule\": \"flow-wallclock\""),
              std::string::npos);
    EXPECT_NE(json.find("\"note\": \"source: host clock "
                        "'steady_clock'\""),
              std::string::npos);
    expectStructurallyValidJson(json);
}

TEST(Taint, JsonFlowsArrayEmptyWhenClean)
{
    const auto r =
        lintSources({{"bench/fx.cc", "int x = 1;\n"}});
    const std::string json = netchar::lint::renderJson(r);
    EXPECT_NE(json.find("\"flows\": []"), std::string::npos);
    expectStructurallyValidJson(json);
}

TEST(Taint, SarifStructure)
{
    const auto r = lintSources(
        {{"bench/fx.cc",
          "void emit() {\n"
          "  auto t = std::chrono::steady_clock::now();\n"
          "  row += csvField(t);\n"
          "}\n"}});
    const std::string sarif = netchar::lint::renderSarif(r);
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"name\": \"netchar-lint\""),
              std::string::npos);
    // Rule metadata covers all three namespaces.
    EXPECT_NE(sarif.find("\"id\": \"no-pointer-hash\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"id\": \"bad-pragma\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"id\": \"flow-wallclock\""),
              std::string::npos);
    // The flow finding carries a codeFlows/threadFlows chain.
    EXPECT_NE(sarif.find("\"ruleId\": \"flow-wallclock\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"codeFlows\""), std::string::npos);
    EXPECT_NE(sarif.find("\"threadFlows\""), std::string::npos);
    EXPECT_NE(sarif.find("\"uri\": \"bench/fx.cc\""),
              std::string::npos);
    expectStructurallyValidJson(sarif);
}

TEST(Taint, SarifEmptyResultsWhenClean)
{
    const auto r =
        lintSources({{"bench/fx.cc", "int x = 1;\n"}});
    const std::string sarif = netchar::lint::renderSarif(r);
    EXPECT_NE(sarif.find("\"results\": []"), std::string::npos);
    expectStructurallyValidJson(sarif);
}

TEST(Taint, SarifRuleDescriptorsArePinned)
{
    // The SARIF of an empty result is the driver.rules table alone:
    // every rule, in order, with its summary and level.
    EXPECT_EQ(
        netchar::lint::renderSarif(netchar::lint::LintResult{}),
        "{\n"
        "  \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
        "  \"version\": \"2.1.0\",\n"
        "  \"runs\": [\n"
        "    {\n"
        "      \"tool\": {\n"
        "        \"driver\": {\n"
        "          \"name\": \"netchar-lint\",\n"
        "          \"informationUri\": "
        "\"https://example.invalid/netchar/docs/ARCHITECTURE.md\",\n"
        "          \"rules\": [\n"
        "          {\"id\": \"no-wallclock\", "
        "\"shortDescription\": {\"text\": \"host clocks are banned "
        "in src/ outside src/stats/hostclock.cc (hostSeconds); "
        "results must derive from simulated cycles\"}, "
        "\"defaultConfiguration\": {\"level\": \"error\"}},\n"
        "          {\"id\": \"no-ambient-rng\", "
        "\"shortDescription\": {\"text\": \"randomness must flow "
        "from an explicit seed: no rand(), random_device or "
        "argless engines\"}, \"defaultConfiguration\": {\"level\": "
        "\"error\"}},\n"
        "          {\"id\": \"no-unordered-iteration\", "
        "\"shortDescription\": {\"text\": \"range-for over "
        "unordered containers visits hash order, which leaks into "
        "exported output\"}, \"defaultConfiguration\": {\"level\": "
        "\"error\"}},\n"
        "          {\"id\": \"no-unguarded-static\", "
        "\"shortDescription\": {\"text\": \"mutable static state "
        "in library code needs an atomic/mutex guard (or to not "
        "exist)\"}, \"defaultConfiguration\": {\"level\": "
        "\"error\"}},\n"
        "          {\"id\": \"no-silent-catch\", "
        "\"shortDescription\": {\"text\": \"catch (...) must "
        "rethrow or record the failure; swallowed errors corrupt "
        "sweeps silently\"}, \"defaultConfiguration\": {\"level\": "
        "\"error\"}},\n"
        "          {\"id\": \"no-raw-thread\", "
        "\"shortDescription\": {\"text\": \"std::thread/std::async "
        "only inside the deterministic-order executor "
        "(src/core/executor)\"}, \"defaultConfiguration\": "
        "{\"level\": \"error\"}},\n"
        "          {\"id\": \"no-pointer-hash\", "
        "\"shortDescription\": {\"text\": \"raw pointer values "
        "must not be hashed or cast to integers; addresses differ "
        "per run under ASLR\"}, \"defaultConfiguration\": "
        "{\"level\": \"error\"}},\n"
        "          {\"id\": \"bad-pragma\", \"shortDescription\": "
        "{\"text\": \"a netchar-lint pragma that is malformed, "
        "lacks a reason, or names an unknown rule\"}, "
        "\"defaultConfiguration\": {\"level\": \"error\"}},\n"
        "          {\"id\": \"flow-wallclock\", "
        "\"shortDescription\": {\"text\": \"a host-clock value "
        "flows into serialized output\"}, "
        "\"defaultConfiguration\": {\"level\": \"error\"}},\n"
        "          {\"id\": \"flow-env\", \"shortDescription\": "
        "{\"text\": \"an environment-variable value flows into "
        "serialized output\"}, \"defaultConfiguration\": "
        "{\"level\": \"error\"}},\n"
        "          {\"id\": \"flow-threadid\", "
        "\"shortDescription\": {\"text\": \"a thread-id value "
        "flows into serialized output\"}, "
        "\"defaultConfiguration\": {\"level\": \"error\"}},\n"
        "          {\"id\": \"race-shared-write\", "
        "\"shortDescription\": {\"text\": \"write to a mutable "
        "static or by-reference-captured object reachable from "
        "executor tasks with an empty lockset\"}, "
        "\"defaultConfiguration\": {\"level\": \"error\"}},\n"
        "          {\"id\": \"lock-leak\", \"shortDescription\": "
        "{\"text\": \"raw .lock() with no .unlock() on some path "
        "to the function exit (use "
        "lock_guard/scoped_lock/unique_lock)\"}, "
        "\"defaultConfiguration\": {\"level\": \"error\"}}\n"
        "          ]\n"
        "        }\n"
        "      },\n"
        "      \"results\": []\n"
        "    }\n"
        "  ]\n"
        "}\n");
}

TEST(Taint, ReportsAreIndependentOfInputOrder)
{
    const SourceBuffer a{"bench/fx_main.cc",
                         "void emit() {\n"
                         "  auto t = std::chrono::steady_clock"
                         "::now();\n"
                         "  writeRow(t);\n"
                         "}\n"};
    const SourceBuffer b{"bench/fx_util.cc",
                         "void writeRow(double v) {\n"
                         "  row += csvField(v);\n"
                         "}\n"};
    const auto fwd = lintSources({a, b});
    const auto rev = lintSources({b, a});
    EXPECT_EQ(netchar::lint::renderText(fwd),
              netchar::lint::renderText(rev));
    EXPECT_EQ(netchar::lint::renderJson(fwd),
              netchar::lint::renderJson(rev));
    EXPECT_EQ(netchar::lint::renderSarif(fwd),
              netchar::lint::renderSarif(rev));
}

TEST(CallGraph, QualifiedSuffixMatchRequiresScopeBoundary)
{
    using netchar::lint::qualifiedSuffixMatches;
    EXPECT_TRUE(qualifiedSuffixMatches("ns::f", "ns::f"));
    EXPECT_TRUE(qualifiedSuffixMatches("a::ns::f", "ns::f"));
    EXPECT_TRUE(qualifiedSuffixMatches("a::ns::f", "f"));
    // One character longer than the call spelling: used to
    // underflow the separator position and throw out_of_range.
    EXPECT_FALSE(
        qualifiedSuffixMatches("XParser::parse", "Parser::parse"));
    // Same-length and shorter definitions can never match.
    EXPECT_FALSE(
        qualifiedSuffixMatches("Parser::parsf", "Parser::parse"));
    EXPECT_FALSE(qualifiedSuffixMatches("f", "ns::f"));
    // A textual suffix without a `::` boundary is not a match.
    EXPECT_FALSE(qualifiedSuffixMatches("ns::sf", "f"));
}

TEST(CallGraph, OneCharLongerDefinitionDoesNotCrash)
{
    // Regression: linking the qualified call `Parser::parse()`
    // against the definition `XParser::parse` (exactly one char
    // longer) aborted the linter with std::out_of_range.
    const auto r = lintSources(
        {{"bench/fx.cc",
          "bool Parser::parse(int n) { return n > 0; }\n"
          "bool XParser::parse(int n) { return n < 0; }\n"
          "void tick() { Parser::parse(3); }\n"}});
    EXPECT_TRUE(r.findings.empty());
}

TEST(CallGraph, ResolveMatchesTheNameRule)
{
    using netchar::lint::CallGraph;
    using netchar::lint::CallSite;
    using netchar::lint::FileModel;
    using netchar::lint::FunctionRef;
    using netchar::lint::lex;
    using netchar::lint::parseFile;
    using netchar::lint::qualifiedSuffixMatches;
    using netchar::lint::Statement;

    std::vector<FileModel> models;
    models.push_back(parseFile("src/a.cc",
                               lex("namespace ns {\n"
                                   "int parse(int x) { return x; }\n"
                                   "}\n"
                                   "int ns::load(int x) { return x; }\n"
                                   "int other::load(int x) { return x; }\n"
                                   "int Parser::step(int x) { return x; }\n"
                                   "void run(Parser &p) {\n"
                                   "  parse(1);\n"
                                   "  p.step(2);\n"
                                   "  ns::load(3);\n"
                                   "  ns::parse(4);\n"
                                   "  missing(5);\n"
                                   "}\n")));
    models.push_back(parseFile("src/b.cc",
                               lex("int parse(int y) { return y; }\n"
                                   "void tick() { parse(6); }\n")));
    const CallGraph graph(models);

    // The name rule, spelled out: every definition of the name, or
    // for a qualified call those whose spelling ends with its `::`
    // components, falling back to all of them when none does.
    const auto byTheRule = [&](const CallSite &call) {
        const std::vector<FunctionRef> &all =
            graph.definitionsOf(call.callee);
        if (call.qualified.empty() || call.qualified == call.callee)
            return all;
        std::vector<FunctionRef> out;
        for (const FunctionRef ref : all)
            if (qualifiedSuffixMatches(
                    models[ref.file].functions[ref.fn].qualified,
                    call.qualified))
                out.push_back(ref);
        return out.empty() ? all : out;
    };

    std::vector<std::pair<std::string, std::size_t>> seen;
    for (std::size_t fi = 0; fi < models.size(); ++fi)
        for (const auto &fn : models[fi].functions)
            for (const Statement &st : fn.stmts)
                for (const CallSite &call : st.calls) {
                    const std::vector<FunctionRef> &got =
                        graph.resolve(fi, call);
                    EXPECT_EQ(got, byTheRule(call)) << call.callee;
                    EXPECT_EQ(&got, &graph.resolve(fi, call))
                        << call.callee;
                    seen.emplace_back(call.qualified.empty()
                                          ? "." + call.callee
                                          : call.qualified,
                                      got.size());
                }
    // Each kind of call is present and links as documented: bare,
    // member, qualified, namespace fallback, unknown.
    const std::vector<std::pair<std::string, std::size_t>> want = {
        {"parse", 2},     {".step", 1},   {"ns::load", 1},
        {"ns::parse", 2}, {"missing", 0}, {"parse", 2},
    };
    EXPECT_EQ(seen, want);
    EXPECT_EQ(graph.stats().callSites, 6u);
    EXPECT_EQ(graph.stats().unresolvedCalls, 1u);
}

} // namespace
