/**
 * @file
 * Interprocedural summary tests (summary.hh): taint transfer and
 * lock effects computed bottom-up over call-graph SCCs.
 *
 * The recursion fixtures are the important ones: a self-recursive
 * function and a mutually-recursive pair exercise the SCC fixpoint
 * (termination plus soundness — taint that flows through a cycle's
 * base case is still reported, lock disciplines that pair up across
 * the cycle stay clean). The cross-function fixtures pin the two
 * classes of finding that are invisible without summaries: a taint
 * chain laundered through a helper for each of several callers, and
 * a lock acquired inside an acquire() helper that a root caller
 * never releases.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint/callgraph.hh"
#include "lint/concurrency.hh"
#include "lint/lint.hh"
#include "lint/summary.hh"
#include "stats/hash.hh"

namespace
{

using netchar::lint::FileModel;
using netchar::lint::Finding;
using netchar::lint::FlowHop;
using netchar::lint::LintOptions;
using netchar::lint::LintResult;
using netchar::lint::lintSources;
using netchar::lint::renderJson;
using netchar::lint::SourceBuffer;

std::vector<Finding>
flowsOf(const LintResult &r)
{
    std::vector<Finding> out;
    for (const Finding &f : r.findings)
        if (!f.path.empty())
            out.push_back(f);
    return out;
}

std::size_t
countRule(const LintResult &r, std::string_view rule)
{
    std::size_t n = 0;
    for (const Finding &f : r.findings)
        if (f.rule == rule)
            ++n;
    return n;
}

const Finding *
findRule(const LintResult &r, std::string_view rule)
{
    for (const Finding &f : r.findings)
        if (f.rule == rule)
            return &f;
    return nullptr;
}

bool
anyHopMentions(const Finding &f, std::string_view needle)
{
    for (const FlowHop &h : f.path)
        if (h.note.find(needle) != std::string::npos)
            return true;
    return false;
}

// ---------------------------------------------------------------
// taint through recursion
// ---------------------------------------------------------------

TEST(Summary, TaintThroughMutualRecursionCycle)
{
    // pingf/pongf form a 2-cycle; the taint escapes through the
    // cycle's base case (`return n` in pongf), so the param→return
    // summary of both members must reach the fixpoint and the
    // caller's clock value must be reported at the sink.
    const auto r = lintSources(
        {{"bench/cycle.cc",
          "double pingf(int n) {\n"
          "  return pongf(n);\n"
          "}\n"
          "double pongf(int n) {\n"
          "  if (n > 1)\n"
          "    return pingf(n - 1);\n"
          "  return n;\n"
          "}\n"
          "void emit() {\n"
          "  auto t = std::chrono::steady_clock::now()\n"
          "               .time_since_epoch().count();\n"
          "  double v = pingf(t);\n"
          "  row += csvField(v);\n"
          "}\n"}});
    const auto flows = flowsOf(r);
    ASSERT_GE(flows.size(), 1u);
    EXPECT_EQ(flows[0].rule, "flow-wallclock");
    // The composed path names the entry point of the callee chain
    // (the cycle's interior is summarized, not unrolled).
    EXPECT_TRUE(anyHopMentions(flows[0], "pingf"));
    // The cycle registered as one SCC of size 2 and took at least
    // one extra fixpoint pass to converge.
    EXPECT_EQ(r.summaries.largestScc, 2u);
    EXPECT_GE(r.summaries.fixpointPasses, 1u);
    EXPECT_GE(r.summaries.paramReturnFlows, 2u);
}

TEST(Summary, TaintThroughSelfRecursionTerminates)
{
    const auto r = lintSources(
        {{"bench/spin.cc",
          "double spinf(double x) {\n"
          "  if (x > 0)\n"
          "    return spinf(x - 1);\n"
          "  return x;\n"
          "}\n"
          "void emit() {\n"
          "  auto t = std::chrono::steady_clock::now()\n"
          "               .time_since_epoch().count();\n"
          "  row += csvField(spinf(t));\n"
          "}\n"}});
    const auto flows = flowsOf(r);
    ASSERT_GE(flows.size(), 1u);
    EXPECT_EQ(flows[0].rule, "flow-wallclock");
    EXPECT_TRUE(anyHopMentions(flows[0], "spinf"));
    EXPECT_EQ(r.summaries.largestScc, 1u);
}

TEST(Summary, BaselessCycleTerminatesAndStaysConservative)
{
    // A pure 2-cycle with no base case: the fixpoint must terminate,
    // and the token-level transfer deliberately over-approximates —
    // a parameter used in a return expression taints the return, so
    // exactly one (conservative) flow is reported rather than none.
    const auto r = lintSources(
        {{"bench/loop.cc",
          "double foreverA(int n) {\n"
          "  return foreverB(n);\n"
          "}\n"
          "double foreverB(int n) {\n"
          "  return foreverA(n);\n"
          "}\n"
          "void emit() {\n"
          "  auto t = std::chrono::steady_clock::now()\n"
          "               .time_since_epoch().count();\n"
          "  row += csvField(foreverA(t));\n"
          "}\n"}});
    EXPECT_EQ(flowsOf(r).size(), 1u);
    EXPECT_EQ(r.summaries.largestScc, 2u);
}

// ---------------------------------------------------------------
// cross-function taint (previously invisible)
// ---------------------------------------------------------------

TEST(Summary, TwoCallersLaunderThroughOneHelper)
{
    // One identity helper, two callers with different sources: the
    // per-caller summary composition must report BOTH flows, each
    // with its own source — a whole-program first-writer-wins pass
    // collapses them to one.
    const auto r = lintSources(
        {{"bench/helper.cc",
          "double shape(double v) {\n"
          "  return v;\n"
          "}\n"},
         {"bench/one.cc",
          "void emitOne() {\n"
          "  auto t = std::chrono::steady_clock::now()\n"
          "               .time_since_epoch().count();\n"
          "  double a = shape(t);\n"
          "  row += csvField(a);\n"
          "}\n"},
         {"bench/two.cc",
          "void emitTwo() {\n"
          "  auto s = getenv(\"NETCHAR_TWO\");\n"
          "  double b = shape(s);\n"
          "  row += csvField(b);\n"
          "}\n"}});
    const auto flows = flowsOf(r);
    ASSERT_EQ(flows.size(), 2u);
    // Sorted by sink file: one.cc (wallclock) before two.cc (env).
    EXPECT_EQ(flows[0].rule, "flow-wallclock");
    EXPECT_EQ(flows[0].file, "bench/one.cc");
    EXPECT_EQ(flows[1].rule, "flow-env");
    EXPECT_EQ(flows[1].file, "bench/two.cc");
    EXPECT_TRUE(anyHopMentions(flows[0], "shape"));
    EXPECT_TRUE(anyHopMentions(flows[1], "shape"));
    // The helper's hops land in the helper's file.
    EXPECT_TRUE([&] {
        for (const FlowHop &h : flows[0].path)
            if (h.file == "bench/helper.cc")
                return true;
        return false;
    }());
}

// ---------------------------------------------------------------
// lock effects through recursion and helpers
// ---------------------------------------------------------------

TEST(Summary, LockPairedAcrossMutualRecursionIsClean)
{
    // stepA acquires, stepB releases, and the two recurse into each
    // other: the SCC fixpoint must converge (not oscillate) and the
    // pairing must silence the would-be leak in stepA.
    const auto r = lintSources(
        {{"src/core/fixture.cc",
          "void stepA(std::mutex &mu, int n) {\n"
          "    mu.lock();\n"
          "    stepB(mu, n);\n"
          "}\n"
          "void stepB(std::mutex &mu, int n) {\n"
          "    if (n)\n"
          "        stepA(mu, n - 1);\n"
          "    mu.unlock();\n"
          "}\n"}});
    EXPECT_EQ(countRule(r, "lock-leak"), 0u);
    EXPECT_EQ(r.summaries.largestScc, 2u);
}

TEST(Summary, AcquireReleaseHelpersPairInCaller)
{
    // The helper pair on its own must not be flagged (each half has
    // its counterpart elsewhere), and a balanced caller is clean.
    const auto r = lintSources(
        {{"src/core/fixture.cc",
          "void acquire(std::mutex &mu) {\n"
          "    mu.lock();\n"
          "}\n"
          "void release(std::mutex &mu) {\n"
          "    mu.unlock();\n"
          "}\n"
          "void balanced(std::mutex &mu) {\n"
          "    acquire(mu);\n"
          "    release(mu);\n"
          "}\n"}});
    EXPECT_EQ(countRule(r, "lock-leak"), 0u);
    EXPECT_GE(r.summaries.lockEffects, 2u);
}

TEST(Summary, LockLeakThroughHelperReportedAtRootCaller)
{
    // leaky() calls the acquire() helper and never releases: the
    // leak must surface at the root caller with the acquire chain
    // in the hops — invisible without interprocedural summaries.
    const auto r = lintSources(
        {{"src/core/fixture.cc",
          "void acquire(std::mutex &mu) {\n"
          "    mu.lock();\n"
          "}\n"
          "void release(std::mutex &mu) {\n"
          "    mu.unlock();\n"
          "}\n"
          "void leaky(std::mutex &mu) {\n"
          "    acquire(mu);\n"
          "}\n"}});
    ASSERT_EQ(countRule(r, "lock-leak"), 1u);
    const Finding *f = findRule(r, "lock-leak");
    EXPECT_EQ(f->function, "leaky");
    EXPECT_NE(f->message.find("acquired by call to 'acquire()'"),
              std::string::npos);
    EXPECT_TRUE([&] {
        for (const FlowHop &h : f->path)
            if (h.note.find("raw lock acquired here") !=
                std::string::npos)
                return true;
        return false;
    }());
}

TEST(Summary, ConcurrencyReportIndependentOfTaintPass)
{
    // The lockset pass reuses the lock model the summaries built.
    // Helper-wrapped raw locks across a mutual-recursion SCC, with
    // clock flows through the same functions so the taint pass has
    // work to do in between: the lock findings and the `locksets`
    // JSON must not depend on whether the taint pass ran.
    const std::vector<SourceBuffer> tree = {
        {"src/core/fixture.cc",
         "static std::mutex mu_;\n"
         "void acquire() {\n"
         "    mu_.lock();\n"
         "}\n"
         "void release() {\n"
         "    mu_.unlock();\n"
         "}\n"
         "double stepA(int n) {\n"
         "    acquire();\n"
         "    return stepB(n);\n"
         "}\n"
         "double stepB(int n) {\n"
         "    if (n)\n"
         "        return stepA(n - 1);\n"
         "    release();\n"
         "    return n;\n"
         "}\n"
         "void leakRoot(int n) {\n"
         "    auto t = std::chrono::steady_clock::now()\n"
         "                 .time_since_epoch().count();\n"
         "    row += csvField(stepA(t));\n"
         "    acquire();\n"
         "    acquire();\n"
         "}\n"}};
    LintOptions noTaint;
    noTaint.taint = false;
    const LintResult with = lintSources(tree);
    const LintResult without = lintSources(tree, noTaint);
    const auto lockReport = [](const LintResult &r) {
        std::string out;
        for (const Finding &f : r.findings) {
            if (!netchar::lint::isRuleIn(
                    f.rule, netchar::lint::RuleFamily::Concurrency))
                continue;
            out += f.file + ":" + std::to_string(f.line) + ":" +
                   std::to_string(f.column) + " " + f.rule + " " +
                   f.function + ": " + f.message + "\n";
            for (const FlowHop &h : f.path)
                out += "  " + h.file + ":" + std::to_string(h.line) +
                       ": " + h.note + "\n";
        }
        const std::string json = renderJson(r);
        return out + json.substr(json.find("\"locksets\""));
    };
    EXPECT_EQ(lockReport(with), lockReport(without));
    // The fixture does exercise both passes and the cycle.
    EXPECT_EQ(with.summaries.largestScc, 2u);
    EXPECT_GE(countRule(with, "lock-leak"), 1u);
    EXPECT_GE(countRule(with, "flow-wallclock"), 1u);
    EXPECT_EQ(countRule(without, "flow-wallclock"), 0u);
}

// ---------------------------------------------------------------
// golden lock report
// ---------------------------------------------------------------

TEST(Locks, GoldenReportDigest)
{
    // One tree that drives every lock-event kind and every call
    // effect path through both consumers of the lock model — the
    // lock-effect summaries and the lockset pass — pinned by the
    // content hash of the JSON report. A deliberate change to lock
    // reporting must re-record the constant in the same change.
    const std::vector<SourceBuffer> tree = {
        {"src/core/locks_guard.cc",
         "static std::mutex mu_;\n"
         "static int counter_ = 0;\n"
         "static long hits_ = 0;\n"
         "static long hot_ = 0;\n"
         "std::mutex &pick(long v);\n"
         "void guarded(std::mutex &m) {\n"
         "    std::unique_lock<std::mutex> lk(m);\n"
         "    counter_ += 1;\n"
         "    lk.unlock();\n"
         "    counter_ += 2;\n"
         "    lk.lock();\n"
         "    lk.lock();\n"
         "}\n"
         "void deferred(std::mutex &m) {\n"
         "    std::unique_lock<std::mutex> lk(m, std::defer_lock);\n"
         "    lk.lock();\n"
         "}\n"
         "void inArgs() {\n"
         "    std::lock_guard<std::mutex> g(pick(hot_.load()));\n"
         "    hot_ = 1;\n"
         "}\n"
         "long sample() {\n"
         "    return std::atomic_ref<long>(hits_).load();\n"
         "}\n"
         "void bump() {\n"
         "    hits_ += 1;\n"
         "    hits_.store(2);\n"
         "}\n"},
        {"src/core/locks_raw.cc",
         "static std::mutex a_;\n"
         "static std::mutex b_;\n"
         "void leaky(std::mutex &m, bool c) {\n"
         "    m.lock();\n"
         "    if (c)\n"
         "        return;\n"
         "    m.unlock();\n"
         "}\n"
         "void maybeRelease(bool c) {\n"
         "    if (c)\n"
         "        mu_.unlock();\n"
         "}\n"
         "void useMaybe(bool c) {\n"
         "    mu_.lock();\n"
         "    maybeRelease(c);\n"
         "    mu_.unlock();\n"
         "}\n"
         "void swapLocks() {\n"
         "    a_.unlock();\n"
         "    b_.lock();\n"
         "}\n"
         "void swapper() {\n"
         "    a_.lock();\n"
         "    swapLocks();\n"
         "    b_.unlock();\n"
         "}\n"
         "void acquireB() {\n"
         "    b_.lock();\n"
         "}\n"
         "void rootLeak() {\n"
         "    acquireB();\n"
         "}\n"
         "void twice() {\n"
         "    b_.lock();\n"
         "    acquireB();\n"
         "    b_.unlock();\n"
         "}\n"},
        {"src/core/locks_cycle.cc",
         "void stepA(int n) {\n"
         "    mu_.lock();\n"
         "    stepB(n);\n"
         "}\n"
         "void stepB(int n) {\n"
         "    if (n)\n"
         "        stepA(n - 1);\n"
         "    mu_.unlock();\n"
         "}\n"
         "void driveSteps(int n) {\n"
         "    stepA(n);\n"
         "    while (n > 0) {\n"
         "        mu_.lock();\n"
         "        --n;\n"
         "    }\n"
         "}\n"},
        {"src/core/locks_task.cc",
         "static int tally_ = 0;\n"
         "void helperWrite() { tally_ += 1; }\n"
         "void helperGuarded(std::mutex &m) {\n"
         "    std::lock_guard<std::mutex> g(m);\n"
         "    tally_ += 2;\n"
         "}\n"
         "void submit(Executor &ex, std::mutex &m) {\n"
         "    int shared = 0;\n"
         "    ex.forEach(4, [&](std::size_t i) {\n"
         "        shared += 1;\n"
         "        m.lock();\n"
         "        shared = 2;\n"
         "        m.unlock();\n"
         "        std::unique_lock<std::mutex> lk(m);\n"
         "        lk.unlock();\n"
         "        shared = 3;\n"
         "        helperWrite();\n"
         "        helperGuarded(m);\n"
         "    });\n"
         "    shared = 4;\n"
         "}\n"},
    };
    const std::string json = renderJson(lintSources(tree));
    EXPECT_EQ(netchar::contentHashHex(json),
              "5d8f173e643f2450b31e227e202b5401")
        << json;
}

// ---------------------------------------------------------------
// determinism and report schema
// ---------------------------------------------------------------

TEST(Summary, ReportByteIdenticalAcrossBufferOrder)
{
    const std::vector<SourceBuffer> fixtures = {
        {"bench/helper.cc",
         "double shape(double v) {\n  return v;\n}\n"},
        {"bench/one.cc",
         "void emitOne() {\n"
         "  auto t = std::chrono::steady_clock::now()\n"
         "               .time_since_epoch().count();\n"
         "  row += csvField(shape(t));\n"
         "}\n"},
        {"bench/cycle.cc",
         "double pingf(int n) {\n"
         "  return pongf(n);\n"
         "}\n"
         "double pongf(int n) {\n"
         "  if (n > 1)\n"
         "    return pingf(n - 1);\n"
         "  return n;\n"
         "}\n"},
    };
    std::vector<SourceBuffer> reversed(fixtures.rbegin(),
                                       fixtures.rend());
    const std::string a = renderJson(lintSources(fixtures));
    const std::string b = renderJson(lintSources(reversed));
    EXPECT_EQ(a, b);
}

TEST(Summary, JsonCarriesSummariesObject)
{
    const auto r = lintSources(
        {{"bench/helper.cc",
          "double shape(double v) {\n  return v;\n}\n"}});
    const std::string json = renderJson(r);
    EXPECT_NE(json.find("\"version\": 4"), std::string::npos);
    EXPECT_NE(json.find("\"summaries\": {\"functions\": 1"),
              std::string::npos);
    EXPECT_NE(json.find("\"paramReturnFlows\": 1"),
              std::string::npos);
    // Stats are opt-in: never present in the plain rendering.
    EXPECT_EQ(json.find("\"stats\""), std::string::npos);
}

} // namespace
