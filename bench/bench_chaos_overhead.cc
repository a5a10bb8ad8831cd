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

#include <cstdio>

#include "common.hh"
#include "core/characterize.hh"
#include "core/report.hh"
#include "stats/hostclock.hh"

using namespace netchar;

NETCHAR_BENCH(chaos_overhead,
              "CI overhead check: hardened runAll vs plain run loop "
              "with injection disabled (target <= 10%)")
{
    std::fprintf(stderr,
                 "Chaos overhead: resilient runAll vs plain runs\n");
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

    // Interleaved per profile, alternating which path goes first:
    // timing all plain runs and then all hardened runs put seconds of
    // host-load drift between the two sides, and on a shared host
    // that alone swung the fraction by +-0.2 from run to run.
    double plain_s = 0.0, hardened_s = 0.0;
    for (int r = 0; r < reps; ++r) {
        for (std::size_t i = 0; i < profiles.size(); ++i) {
            RunResult plain;
            std::vector<RunResult> hardened;
            SuiteRunStats stats;
            const auto timePlain = [&] {
                const double t0 = hostSeconds();
                plain = ch.run(profiles[i], opts);
                plain_s += hostSeconds() - t0;
            };
            const auto timeHardened = [&] {
                const double t0 = hostSeconds();
                hardened = ch.runAll({profiles[i]}, opts, par, &stats);
                hardened_s += hostSeconds() - t0;
            };
            if (i % 2 == 0) {
                timePlain();
                timeHardened();
            } else {
                timeHardened();
                timePlain();
            }

            if (stats.failedRuns() != 0 || !stats.failures.empty()) {
                ctx.fail("injection disabled yet runs failed");
                return;
            }
            if (hardened.front().counters.instructions !=
                plain.counters.instructions) {
                ctx.fail(profiles[i].name + ": hardened run diverged");
                return;
            }
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
