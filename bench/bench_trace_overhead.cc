/**
 * @file
 * Tracing overhead check: wall time of traced captures vs plain runs
 * over the Table IV .NET subset. The design target is <= 10%
 * overhead — trace emission is a clock read plus a fixed-size ring
 * push, and counter records land once per advance chunk, so the cost
 * stays flat per instruction simulated. The OVH-01 gate bounds it at
 * 15%; the bench fails only on divergence.
 */

#include <cstdio>

#include "common.hh"
#include "core/characterize.hh"
#include "core/report.hh"
#include "stats/hostclock.hh"

using namespace netchar;

NETCHAR_BENCH(trace_overhead,
              "CI overhead check: traced captures vs plain runs over "
              "the .NET subset (target <= 10%)")
{
    std::fprintf(stderr, "Trace overhead: capture vs plain run\n");
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profiles = bench::tableIvDotnet();
    const RunOptions opts = bench::standardOptions();
    const int reps = bench::quickMode() ? 1 : 3;

    // Warm both paths once so first-touch allocation noise does not
    // land on either side of the comparison.
    ch.run(profiles.front(), opts);
    ch.capture(profiles.front(), opts);

    double plain_s = 0.0, traced_s = 0.0;
    std::uint64_t events = 0, records = 0;
    for (int r = 0; r < reps; ++r) {
        for (const auto &p : profiles) {
            const double t0 = hostSeconds();
            const auto plain = ch.run(p, opts);
            plain_s += hostSeconds() - t0;

            const double t1 = hostSeconds();
            const auto cap = ch.capture(p, opts);
            traced_s += hostSeconds() - t1;
            events += cap.trace.events.totalPushed();
            records += cap.trace.samples.totalPushed();

            if (cap.result.counters.instructions !=
                plain.counters.instructions) {
                ctx.fail(p.name + ": traced window diverged");
                return;
            }
        }
    }

    const double overhead =
        plain_s > 0.0 ? (traced_s - plain_s) / plain_s : 0.0;
    ctx.printf("Trace overhead over the .NET subset (%d rep(s))\n\n",
               reps);
    TextTable table({"Path", "Wall s", "Events", "Counter records"});
    table.addRow({"plain run", fmtFixed(plain_s, 3), "-", "-"});
    table.addRow({"traced capture", fmtFixed(traced_s, 3),
                  std::to_string(events), std::to_string(records)});
    ctx.printf("%s\n", table.render().c_str());
    ctx.printf("overhead: %+.1f%% (target: <= 10%%)\n",
               100.0 * overhead);
    // The OVH-01 gate enforces the 15% budget; the bench fails only
    // on divergence, so the 10% target above is reported, not
    // enforced.
    ctx.metric("overhead_frac", "frac", overhead);
}
