/**
 * @file
 * Lockset/escape analysis tests: at least one true positive per
 * concurrency rule, a true negative per RAII guard type
 * (lock_guard, scoped_lock, unique_lock), pragma suppression, and
 * the determinism contract (byte-identical reports across buffer
 * orders, locksets surfaced in the JSON schema-v4 report).
 *
 * Fixtures run through lintSources(), so token rules fire too
 * (e.g. no-unguarded-static on the shared statics the race rule
 * needs) — assertions therefore filter by rule name instead of
 * counting totals.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint/lint.hh"

namespace
{

using netchar::lint::Finding;
using netchar::lint::LintOptions;
using netchar::lint::LintResult;
using netchar::lint::lintSources;
using netchar::lint::renderJson;
using netchar::lint::SourceBuffer;

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

TEST(RaceSharedWrite, ByRefCaptureWriteInTaskLambda)
{
    const auto r = lintSources(
        {{"src/core/fixture.cc",
          "void run(Executor &ex) {\n"
          "    int shared = 0;\n"
          "    ex.forEach(4, [&](std::size_t) { shared = 1; });\n"
          "}\n"}});
    ASSERT_EQ(countRule(r, "race-shared-write"), 1u);
    const Finding *f = findRule(r, "race-shared-write");
    EXPECT_EQ(f->line, 3);
    EXPECT_EQ(f->function, "run");
    ASSERT_EQ(f->path.size(), 2u); // capture hop + write hop
    EXPECT_NE(f->path[0].note.find("captured by reference"),
              std::string::npos);
}

TEST(RaceSharedWrite, PrefixIncrementInTaskLambda)
{
    // `++shared` is the same write as `shared++`.
    const auto r = lintSources(
        {{"src/core/fixture.cc",
          "void run(Executor &ex) {\n"
          "    int shared = 0;\n"
          "    ex.forEach(4, [&](std::size_t) { ++shared; });\n"
          "}\n"}});
    ASSERT_EQ(countRule(r, "race-shared-write"), 1u);
    const Finding *f = findRule(r, "race-shared-write");
    EXPECT_EQ(f->line, 3);
    EXPECT_EQ(f->column, 40); // the identifier, not the operator
    EXPECT_NE(f->message.find("'shared'"), std::string::npos);
}

TEST(RaceSharedWrite, StaticWriteInEscapedFunction)
{
    const auto r = lintSources(
        {{"src/core/fixture.cc",
          "static int counter_ = 0;\n"
          "void helper() { counter_ += 1; }\n"
          "void submit(Executor &ex) {\n"
          "    ex.forEach(2, [&](std::size_t) { helper(); });\n"
          "}\n"}});
    ASSERT_EQ(countRule(r, "race-shared-write"), 1u);
    const Finding *f = findRule(r, "race-shared-write");
    EXPECT_EQ(f->line, 2);
    EXPECT_EQ(f->function, "helper");
    // Hops: declaration, escape witness, write.
    ASSERT_EQ(f->path.size(), 3u);
    EXPECT_NE(f->path[1].note.find("submitted to the executor"),
              std::string::npos);
    EXPECT_GT(r.escapedFunctions, 0u);
}

TEST(RaceSharedWrite, LocalWritesAndMemberWritesAreNotRaces)
{
    const auto r = lintSources(
        {{"src/core/fixture.cc",
          "void run(Executor &ex, std::vector<int> &out) {\n"
          "    ex.forEach(4, [&](std::size_t i) {\n"
          "        int acc = 0;\n"
          "        acc += 2;\n"
          "        out[i] = acc;\n" // disjoint-index idiom
          "    });\n"
          "}\n"}});
    EXPECT_EQ(countRule(r, "race-shared-write"), 0u);
}

TEST(RaceSharedWrite, ForLoopCounterInTaskLambdaIsLocal)
{
    // The loop counter is declared in the for's init-statement, so
    // its `++i` writes a task-local variable.
    const auto r = lintSources(
        {{"src/core/fixture.cc",
          "void run(Executor &ex, std::vector<int> &out) {\n"
          "    ex.forEach(4, [&](std::size_t t) {\n"
          "        for (std::size_t i = 0; i < 4; ++i)\n"
          "            out[t] += 1;\n"
          "    });\n"
          "}\n"}});
    EXPECT_EQ(countRule(r, "race-shared-write"), 0u);
}

TEST(RaceSharedWrite, LockGuardSanctionsTheWrite)
{
    const auto r = lintSources(
        {{"src/core/fixture.cc",
          "static std::mutex mu_;\n"
          "static int guarded_ = 0;\n"
          "void helper() {\n"
          "    std::lock_guard<std::mutex> g(mu_);\n"
          "    guarded_ += 1;\n"
          "}\n"
          "void submit(Executor &ex) {\n"
          "    ex.forEach(2, [&](std::size_t) { helper(); });\n"
          "}\n"}});
    EXPECT_EQ(countRule(r, "race-shared-write"), 0u);
}

TEST(RaceSharedWrite, ScopedLockSanctionsTheWrite)
{
    const auto r = lintSources(
        {{"src/core/fixture.cc",
          "static std::mutex mu_;\n"
          "static int guarded_ = 0;\n"
          "void helper() {\n"
          "    std::scoped_lock g(mu_);\n" // CTAD spelling
          "    guarded_ += 1;\n"
          "}\n"
          "void submit(Executor &ex) {\n"
          "    ex.forEach(2, [&](std::size_t) { helper(); });\n"
          "}\n"}});
    EXPECT_EQ(countRule(r, "race-shared-write"), 0u);
}

TEST(RaceSharedWrite, UniqueLockSanctionsTheWrite)
{
    const auto r = lintSources(
        {{"src/core/fixture.cc",
          "static std::mutex mu_;\n"
          "static int guarded_ = 0;\n"
          "void helper() {\n"
          "    std::unique_lock<std::mutex> g(mu_);\n"
          "    guarded_ += 1;\n"
          "    g.unlock();\n" // guard receiver: sanctioned
          "}\n"
          "void submit(Executor &ex) {\n"
          "    ex.forEach(2, [&](std::size_t) { helper(); });\n"
          "}\n"}});
    EXPECT_EQ(countRule(r, "race-shared-write"), 0u);
    EXPECT_EQ(countRule(r, "lock-leak"), 0u);
}

TEST(RaceSharedWrite, GuardInsideTheLambdaSanctions)
{
    const auto r = lintSources(
        {{"src/core/fixture.cc",
          "void run(Executor &ex, std::mutex &mu) {\n"
          "    int shared = 0;\n"
          "    ex.forEach(4, [&](std::size_t) {\n"
          "        std::lock_guard<std::mutex> g(mu);\n"
          "        shared = 1;\n"
          "    });\n"
          "}\n"}});
    EXPECT_EQ(countRule(r, "race-shared-write"), 0u);
}

TEST(RaceSharedWrite, AllowPragmaSuppresses)
{
    const auto r = lintSources(
        {{"src/core/fixture.cc",
          "void run(Executor &ex) {\n"
          "    int shared = 0;\n"
          "    ex.forEach(4, [&](std::size_t) {\n"
          "        // netchar-lint: allow(race-shared-write) -- "
          "task-disjoint by audit\n"
          "        shared = 1;\n"
          "    });\n"
          "}\n"}});
    EXPECT_EQ(countRule(r, "race-shared-write"), 0u);
    EXPECT_GE(r.suppressedCount, 1u);
}

TEST(LockLeak, RawLockWithoutUnlockOnSomePath)
{
    const auto r = lintSources(
        {{"src/core/fixture.cc",
          "void leak(std::mutex &mu, bool c) {\n"
          "    mu.lock();\n"
          "    if (c)\n"
          "        return;\n" // this path leaks
          "    mu.unlock();\n"
          "}\n"}});
    ASSERT_EQ(countRule(r, "lock-leak"), 1u);
    const Finding *f = findRule(r, "lock-leak");
    EXPECT_EQ(f->line, 2); // anchored at the lock site
    ASSERT_EQ(f->path.size(), 2u);

    // Never unlocked: every path reaches the exit holding mu, so the
    // finding's lockset (the JSON `locksets` array) is non-empty.
    const auto never = lintSources(
        {{"src/core/fixture.cc",
          "void bad(std::mutex &mu) {\n"
          "    mu.lock();\n"
          "}\n"}});
    ASSERT_EQ(countRule(never, "lock-leak"), 1u);
    EXPECT_EQ(findRule(never, "lock-leak")->lockset,
              std::vector<std::string>{"mu"});
}

TEST(LockLeak, BalancedLockUnlockIsClean)
{
    const auto r = lintSources(
        {{"src/core/fixture.cc",
          "void ok(std::mutex &mu, bool c) {\n"
          "    mu.lock();\n"
          "    if (c) {\n"
          "        mu.unlock();\n"
          "        return;\n"
          "    }\n"
          "    mu.unlock();\n"
          "}\n"}});
    EXPECT_EQ(countRule(r, "lock-leak"), 0u);
}

TEST(Concurrency, NoConcurrencyOptionDisablesThePass)
{
    LintOptions opts;
    opts.concurrency = false;
    opts.taint = false;
    const SourceBuffer leak{"src/core/fixture.cc",
                            "void bad(std::mutex &mu) { mu.lock(); }\n"};
    // The same fixture is a finding with the pass on.
    EXPECT_EQ(countRule(lintSources({leak}), "lock-leak"), 1u);
    const auto r = lintSources({leak}, opts);
    EXPECT_EQ(countRule(r, "lock-leak"), 0u);
}

TEST(Concurrency, ReportIsByteIdenticalAcrossBufferOrder)
{
    const SourceBuffer a{"src/core/afix.cc",
                         "void run(Executor &ex) {\n"
                         "    int shared = 0;\n"
                         "    ex.forEach(4, [&](std::size_t) { "
                         "shared = 1; });\n"
                         "}\n"};
    const SourceBuffer b{"src/core/bfix.cc",
                         "void bad(std::mutex &mu) { mu.lock(); }\n"};
    const auto r1 = lintSources({a, b});
    const auto r2 = lintSources({b, a});
    EXPECT_EQ(renderJson(r1), renderJson(r2));
    EXPECT_EQ(countRule(r1, "race-shared-write"), 1u);
    EXPECT_EQ(countRule(r1, "lock-leak"), 1u);
}

TEST(Concurrency, JsonCarriesLocksetsAndCallGraphStats)
{
    const auto r = lintSources(
        {{"src/core/fixture.cc",
          "void bad(std::mutex &mu) {\n"
          "    mu.lock();\n"
          "    mu.lock();\n"
          "}\n"}});
    const std::string json = renderJson(r);
    EXPECT_NE(json.find("\"version\": 4"), std::string::npos);
    EXPECT_NE(json.find("\"callGraph\""), std::string::npos);
    EXPECT_NE(json.find("\"locksets\": ["), std::string::npos);
    EXPECT_NE(json.find("\"held\": [\"mu\"]"), std::string::npos);
    EXPECT_NE(json.find("\"function\": \"bad\""),
              std::string::npos);
}

} // namespace
