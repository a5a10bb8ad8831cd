/**
 * @file
 * Parallel lint driver: the entry point that lints files and
 * directory trees.
 *
 * The analysis layers below (lint.hh) are deliberately split into a
 * per-file phase (analyzeFileUnit — a pure function of path and
 * content) and a cross-file phase (assembleUnits). With --jobs N
 * the driver fans the per-file phase out over a core::Executor.
 * Each task writes only its own unit slot and the cross-file phase
 * consumes the slots in sorted-path order, so the report is
 * byte-identical at any job count (ctest-enforced, same bar as
 * lint.concurrency).
 *
 * This is the only lint layer allowed to link netchar_core: the
 * analysis code audits the executor, so it must not depend on it
 * (CMake enforces the split — netchar_lint_core links only
 * netchar_stats, the driver library links both).
 */

#ifndef NETCHAR_LINT_DRIVER_HH
#define NETCHAR_LINT_DRIVER_HH

#include <string>
#include <vector>

#include "lint/lint.hh"

namespace netchar::lint
{

/** Knobs of one driver run, wrapping the analysis options. */
struct DriverOptions
{
    LintOptions lint;
    /** Per-file analysis parallelism; 0 picks one job per hardware
     *  thread, 1 (the default) is a serial loop. Never affects
     *  report bytes. */
    unsigned jobs = 1;
};

/**
 * Lint files and directory trees: discover (sorted, de-duplicated,
 * lexically normalized), analyze per file (in parallel when
 * `opts.jobs` != 1), assemble the cross-file report. An unreadable
 * path appends to `errors` and is otherwise skipped. `stats`
 * (optional) receives per-phase timings.
 */
LintResult runLint(const std::vector<std::string> &paths,
                   std::vector<std::string> &errors,
                   const DriverOptions &opts,
                   LintStats *stats = nullptr);

} // namespace netchar::lint

#endif // NETCHAR_LINT_DRIVER_HH
