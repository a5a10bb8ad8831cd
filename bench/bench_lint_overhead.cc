/**
 * @file
 * Lint-pass overhead check (gate LNT-01).
 *
 * LNT-01: a full-tree netchar-lint run with the CFG/lockset
 * concurrency pass enabled vs the same run with taint only. The
 * concurrency pass re-walks every function body (CFG build +
 * fixpoint), so it cannot be free — the gate bounds it at <= 2x the
 * taint-only wall time, keeping the build-time race detection cheap
 * enough to stay in the default CI lint step.
 *
 * Runs over the live tree (src tools bench tests examples), so it
 * must execute from the repository root — the same working-
 * directory contract as the lint.tree ctest.
 */

#include <filesystem>

#include "common.hh"
#include "core/report.hh"
#include "lint/driver.hh"

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
    const int reps = bench::quickMode() ? 1 : 3;

    // Warm the page cache so rep 1 does not charge cold I/O to
    // whichever side runs first.
    {
        std::vector<std::string> errors;
        lint::DriverOptions warm;
        warm.lint.taint = false;
        warm.lint.concurrency = false;
        lint::runLint(paths, errors, warm);
        if (!errors.empty()) {
            ctx.fail("cannot read the live tree: " + errors[0]);
            return;
        }
    }

    ctx.printf("Lint overhead over the live tree (%d rep(s))\n\n",
               reps);
    TextTable table({"Rep", "Taint-only s", "Full s", "Ratio"});
    for (int r = 0; r < reps; ++r) {
        std::vector<std::string> errors;

        lint::DriverOptions taintOnly;
        taintOnly.lint.concurrency = false;
        const double t0 = bench::nowSeconds();
        const auto base = lint::runLint(paths, errors, taintOnly);
        const double taint_s = bench::nowSeconds() - t0;

        lint::DriverOptions full; // taint + concurrency (defaults)
        const double t1 = bench::nowSeconds();
        const auto both = lint::runLint(paths, errors, full);
        const double full_s = bench::nowSeconds() - t1;

        if (!errors.empty()) {
            ctx.fail("lint I/O error: " + errors[0]);
            return;
        }
        if (both.filesScanned != base.filesScanned) {
            ctx.fail("passes scanned different file sets");
            return;
        }

        const double ratio =
            taint_s > 0.0 ? full_s / taint_s : 1.0;
        ctx.metric("taint_only_s", "s", taint_s, false);
        ctx.metric("full_lint_s", "s", full_s, false);
        ctx.metric("concurrency_ratio", "x", ratio, false);
        table.addRow({std::to_string(r + 1), fmtFixed(taint_s, 3),
                      fmtFixed(full_s, 3), fmtFixed(ratio, 2)});
    }
    ctx.print(table.render());
}
NETCHAR_BENCH_MAIN(lint_overhead)
