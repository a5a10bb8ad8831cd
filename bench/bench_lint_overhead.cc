/**
 * @file
 * Lint-pass overhead check (gate LNT-01).
 *
 * LNT-01: a full-tree netchar-lint run with the CFG/lockset
 * concurrency pass enabled vs the same run with taint only. The
 * concurrency pass re-walks every function body (CFG build +
 * fixpoint), so it cannot be free — the gate bounds it at <= 2x the
 * taint-only wall time, keeping the build-time race detection cheap
 * enough to stay in the default CI lint step. Quick mode runs two
 * paired reps and full mode four, and each metric sums them.
 *
 * Runs over the live tree (src tools bench tests examples), so it
 * must execute from the repository root — the same working-
 * directory contract as the lint.tree ctest.
 */

#include <filesystem>
#include <string>
#include <vector>

#include "common.hh"
#include "core/report.hh"
#include "lint/lint.hh"

using namespace netchar;

NETCHAR_BENCH(lint_overhead,
              "CI overhead check: full lint (taint + concurrency) "
              "vs taint-only over the live tree (target <= 2x)")
{
    if (!std::filesystem::exists("src/lint")) {
        ctx.fail("live tree not found: run from the repository "
                 "root (see the lint.tree ctest)");
        return;
    }
    const std::vector<std::string> paths = {
        "src", "tools", "bench", "tests", "examples"};
    const std::size_t reps = bench::quickMode() ? 2 : 4;

    // Warm the page cache so rep 1 does not charge cold I/O to
    // whichever side runs first.
    {
        std::vector<std::string> errors;
        lint::LintOptions warm;
        warm.taint = false;
        warm.concurrency = false;
        lint::runLint(paths, errors, warm);
        if (!errors.empty()) {
            ctx.fail("cannot read the live tree: " + errors[0]);
            return;
        }
    }

    // Each rep lints the tree once per side (bench::pairedSeconds),
    // so an even rep count runs each side first equally often.
    std::vector<std::size_t> base_files(reps), full_files(reps);
    std::vector<std::string> errors;
    const auto [taint_s, full_s] = bench::pairedSeconds(
        reps,
        [&](std::size_t r) {
            lint::LintOptions taintOnly;
            taintOnly.concurrency = false;
            base_files[r] =
                lint::runLint(paths, errors, taintOnly).filesScanned;
        },
        [&](std::size_t r) {
            lint::LintOptions full; // taint + concurrency (defaults)
            full_files[r] =
                lint::runLint(paths, errors, full).filesScanned;
        });
    if (!errors.empty()) {
        ctx.fail("lint I/O error: " + errors[0]);
        return;
    }
    if (full_files != base_files) {
        ctx.fail("passes scanned different file sets");
        return;
    }

    const double ratio = taint_s > 0.0 ? full_s / taint_s : 1.0;
    ctx.printf("Lint overhead over the live tree (%zu rep(s))\n\n",
               reps);
    TextTable table({"Pass", "Wall s"});
    table.addRow({"taint only", fmtFixed(taint_s, 3)});
    table.addRow({"taint + concurrency", fmtFixed(full_s, 3)});
    ctx.printf("%s\n", table.render().c_str());
    ctx.printf("ratio: %.2fx (target: <= 2x)\n", ratio);
    ctx.metric("taint_only_s", "s", taint_s);
    ctx.metric("full_lint_s", "s", full_s);
    ctx.metric("concurrency_ratio", "x", ratio);
}
