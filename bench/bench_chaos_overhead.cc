/**
 * @file
 * Resilience-machinery overhead check: wall time of the hardened
 * runAll path (watchdog plumbing, result screening, ledger plumbing,
 * chaos decision hooks — all with injection disabled) vs a plain
 * run, profile by profile over the Table IV .NET subset. The OVH-02
 * gate bounds the overhead at 10%: with no chaos plan the per-run
 * cost is a null injector check, one seed pass-through and 24
 * isfinite() tests, all constant per run and invisible next to the
 * simulation itself. The bench fails only on divergence or
 * unexpected run failures.
 */

#include <cstdint>
#include <vector>

#include "common.hh"
#include "core/characterize.hh"
#include "core/report.hh"

using namespace netchar;

NETCHAR_BENCH(chaos_overhead,
              "CI overhead check: hardened runAll vs plain run loop "
              "with injection disabled (target <= 10%)")
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profiles = bench::tableIvDotnet();
    const RunOptions opts = bench::standardOptions();
    const int reps = bench::quickMode() ? 1 : 3;

    // Serial on both sides: the comparison isolates the resilience
    // machinery, not executor fan-out.
    Parallelism par;
    par.jobs = 1;

    // Warm both paths once so first-touch allocation noise does not
    // land on either side of the comparison.
    ch.run(profiles.front(), opts);
    {
        SuiteRunStats warm_stats;
        ch.runAll({profiles.front()}, opts, par, &warm_stats);
    }

    // Interleaved per (rep, profile), alternating which path goes
    // first (bench::pairedSeconds): timing all plain runs and then all
    // hardened runs put seconds of host-load drift between the two
    // sides, and on a shared host that alone swung the fraction by
    // +-0.2 from run to run.
    const std::size_t n = static_cast<std::size_t>(reps) * profiles.size();
    std::vector<std::uint64_t> plain_insts(n), hardened_insts(n);
    bool failed = false;
    const auto [plain_s, hardened_s] = bench::pairedSeconds(
        n,
        [&](std::size_t i) {
            plain_insts[i] = ch.run(profiles[i % profiles.size()], opts)
                                 .counters.instructions;
        },
        [&](std::size_t i) {
            SuiteRunStats stats;
            const auto hardened = ch.runAll(
                {profiles[i % profiles.size()]}, opts, par, &stats);
            failed = failed || stats.failedRuns() != 0 ||
                     !stats.failures.empty();
            hardened_insts[i] = hardened.front().counters.instructions;
        });
    if (failed) {
        ctx.fail("injection disabled yet runs failed");
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (hardened_insts[i] != plain_insts[i]) {
            ctx.fail(profiles[i % profiles.size()].name +
                     ": hardened run diverged");
            return;
        }
    }

    const double overhead =
        plain_s > 0.0 ? (hardened_s - plain_s) / plain_s : 0.0;
    ctx.printf(
        "Resilience overhead over the .NET subset (%d rep(s))\n\n",
        reps);
    TextTable table({"Path", "Wall s"});
    table.addRow({"plain runs", fmtFixed(plain_s, 3)});
    table.addRow({"hardened runAll", fmtFixed(hardened_s, 3)});
    ctx.printf("%s\n", table.render().c_str());
    ctx.printf("overhead: %+.1f%% (target: <= 10%%)\n",
               100.0 * overhead);
    // The OVH-02 gate enforces the budget; the bench fails only on
    // divergence or unexpected run failures.
    ctx.metric("overhead_frac", "frac", overhead);
}
