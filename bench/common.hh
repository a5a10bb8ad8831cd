/**
 * @file
 * Shared helpers for the paper-reproduction benches: the
 * Table IV representative subsets, standard run options, the suite
 * sweep, and a quick mode for smoke runs.
 */

#ifndef NETCHAR_BENCH_COMMON_HH
#define NETCHAR_BENCH_COMMON_HH

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/characterize.hh"
#include "core/report.hh"
#include "harness.hh"
#include "workloads/profile.hh"

namespace netchar::bench
{

/** Table IV: the 8-category .NET representative subset. */
std::vector<wl::WorkloadProfile> tableIvDotnet();

/** Table IV: the 8-element ASP.NET representative subset. */
std::vector<wl::WorkloadProfile> tableIvAspnet();

/** Table IV: the 8-element SPEC CPU17 representative subset. */
std::vector<wl::WorkloadProfile> tableIvSpec();

// quickMode()/scaledInstructions() live in harness.hh: one
// quick-mode policy for every bench.

/** Standard §III methodology options (honors quick mode). */
RunOptions standardOptions();

/**
 * Characterize a list of profiles: one runAll sweep over every
 * hardware thread, each profile measured for its quick-mode-scaled
 * length unless `options` sets one. Throws if any run fails. A bench
 * whose cells differ in a profile-level knob (GC mode, heap, MLP,
 * ...) puts it in each cell's profile copy and sweeps them together.
 */
std::vector<RunResult>
runSuite(const Characterizer &ch,
         const std::vector<wl::WorkloadProfile> &profiles,
         const RunOptions &options);

/** runSuite's capture twin: one captureAll sweep, same rule. */
std::vector<CaptureResult>
captureSuite(const Characterizer &ch,
             const std::vector<wl::WorkloadProfile> &profiles,
             const RunOptions &options, const TraceOptions &topts);

/** Names of a profile list. */
std::vector<std::string>
names(const std::vector<wl::WorkloadProfile> &profiles);

/** Values of a bar list: one stacked bar's segments. */
std::vector<double> barValues(const std::vector<Bar> &bars);

/**
 * Paired host timing, the one rule of every overhead gate: for each
 * item i < n, run `base(i)` and `treated(i)` back to back, the base
 * first for even i and second for odd i, and sum each side's
 * seconds. Interleaving per item keeps host-load drift from landing
 * on one side; alternating the order keeps cache warmth from
 * favouring whichever side runs second.
 *
 * @return {base seconds, treated seconds}.
 */
std::pair<double, double>
pairedSeconds(std::size_t n, const std::function<void(std::size_t)> &base,
              const std::function<void(std::size_t)> &treated);

/** Geometric mean that tolerates zeros by flooring at `floor`. */
double geomeanFloored(const std::vector<double> &xs,
                      double floor = 1e-4);

} // namespace netchar::bench

#endif // NETCHAR_BENCH_COMMON_HH
