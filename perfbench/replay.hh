/**
 * @file
 * Characterizer::run rebuilt from its public parts with a span around
 * each layer, shared by the sweep replays and serve-mix's miss
 * replays. Callers compare the replica's output bytes with the real
 * path's, which keeps it honest.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <vector>

#include "core/characterize.hh"
#include "harness.hh"
#include "sim/config.hh"
#include "workloads/profile.hh"

namespace perfbench
{

struct ReplayRun
{
    netchar::RunResult result;
    /** Simulated instructions including warmup, all cores. */
    std::uint64_t allInstructions = 0;
};

/**
 * One characterization, spanned as sim.machine_build,
 * runtime.clr_build, workloads.synth_build, sim.run (generation and
 * core together) and core.metrics. Covers what the workloads use: no
 * GC/heap overrides and no cycle budget.
 */
ReplayRun replayRun(const netchar::sim::MachineConfig &config,
                    netchar::wl::WorkloadProfile profile,
                    const netchar::RunOptions &options, Tracer *tracer,
                    std::uint64_t op);

/**
 * Per-op sim/runtime/workloads layer metrics from traced replays:
 * mean self time per run of each span above, host ns per simulated
 * instruction, simulated Minstr per busy host second, and the exact
 * simulated counts of `runs` (one pass over the workload's runs).
 *
 * @param passes How many times `runs` was replayed into `spans`.
 * @param busySeconds Summed duration of the spans around the runs.
 */
void setSimLayerMetrics(Outcome &out, const std::vector<Span> &spans,
                        const std::vector<ReplayRun> &runs,
                        std::size_t passes, double busySeconds);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
