/**
 * @file
 * runLint tests (lint.hh): the file-tree entry point of
 * netchar-lint.
 *
 * The contract under test is byte-identity: the rendered report
 * must not change with how the --check paths were spelled.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lint/lint.hh"

namespace fs = std::filesystem;

namespace
{

using netchar::lint::LintOptions;
using netchar::lint::LintResult;
using netchar::lint::LintStats;
using netchar::lint::renderJson;
using netchar::lint::runLint;

/// Fresh scratch tree per test; removed up front so a crashed prior
/// run can't leak state into this one.
class ScratchTree
{
  public:
    explicit ScratchTree(const std::string &name)
        : root_(fs::temp_directory_path() /
                ("netchar_lint_run_" + name))
    {
        fs::remove_all(root_);
        fs::create_directories(root_ / "bench");
    }

    ~ScratchTree()
    {
        std::error_code ec;
        fs::remove_all(root_, ec);
    }

    std::string
    write(const std::string &rel, const std::string &content) const
    {
        const fs::path p = root_ / rel;
        fs::create_directories(p.parent_path());
        std::ofstream out(p, std::ios::binary);
        out << content;
        return p.generic_string();
    }

    std::string
    dir() const
    {
        return (root_ / "bench").generic_string();
    }

  private:
    fs::path root_;
};

const char *const kTaintedSource =
    "void emit() {\n"
    "  auto t = std::chrono::steady_clock::now()\n"
    "               .time_since_epoch().count();\n"
    "  row += csvField(t);\n"
    "}\n";

const char *const kCleanSource =
    "double shape(double v) {\n"
    "  return v;\n"
    "}\n";

TEST(Driver, RepeatedAndOverlappingPathsAreDeduplicated)
{
    ScratchTree tree("dedup");
    const std::string file = tree.write("bench/a.cc", kTaintedSource);
    tree.write("bench/sub/b.cc", kCleanSource);

    const LintOptions opts;
    std::vector<std::string> errors;

    // Once, plainly.
    const LintResult once = runLint({tree.dir()}, errors, opts);
    ASSERT_TRUE(errors.empty());

    // The same tree spelled four overlapping ways: the directory
    // twice, a contained subdirectory, and a direct file path with
    // a redundant "." segment.
    const std::string dotted =
        fs::path(tree.dir()).parent_path().generic_string() +
        "/./bench";
    const LintResult messy = runLint(
        {tree.dir(), dotted, tree.dir() + "/sub", file}, errors,
        opts);
    ASSERT_TRUE(errors.empty());

    EXPECT_EQ(renderJson(messy), renderJson(once));
    EXPECT_EQ(messy.filesScanned, 2u);
}

TEST(Driver, StatsTextRendersCounters)
{
    LintStats stats;
    stats.lexSeconds = 0.25;
    stats.parseSeconds = 0.5;
    stats.rulesSeconds = 0.125;
    stats.summarySeconds = 2;
    const std::string text =
        netchar::lint::renderStatsText(stats);
    EXPECT_NE(text.find("netchar-lint stats:"), std::string::npos);
    EXPECT_NE(text.find("lex       0.25s"), std::string::npos);
    EXPECT_NE(text.find("parse     0.5s"), std::string::npos);
    EXPECT_NE(text.find("rules     0.125s"), std::string::npos);
    EXPECT_NE(text.find("summaries 2s"), std::string::npos);
}

} // namespace
