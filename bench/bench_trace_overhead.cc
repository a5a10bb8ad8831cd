/**
 * @file
 * Tracing overhead check: wall time of traced captures vs plain runs
 * over the Table IV .NET subset. The design target is <= 10%
 * overhead — trace emission is a clock read plus a fixed-size ring
 * push, and counter records land once per advance chunk, so the cost
 * stays flat per instruction simulated. The OVH-01 gate bounds it at
 * 15%; the bench fails only on divergence.
 */

#include <cstdint>
#include <vector>

#include "common.hh"
#include "core/characterize.hh"
#include "core/report.hh"

using namespace netchar;

NETCHAR_BENCH(trace_overhead,
              "CI overhead check: traced captures vs plain runs over "
              "the .NET subset (target <= 10%)")
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profiles = bench::tableIvDotnet();
    const RunOptions opts = bench::standardOptions();
    const int reps = bench::quickMode() ? 1 : 3;

    // Warm both paths once so first-touch allocation noise does not
    // land on either side of the comparison.
    ch.run(profiles.front(), opts);
    ch.capture(profiles.front(), opts);

    // One item per (rep, profile), timed by the shared paired rule.
    const std::size_t n = static_cast<std::size_t>(reps) * profiles.size();
    std::vector<std::uint64_t> plain_insts(n), traced_insts(n);
    std::uint64_t events = 0, records = 0;
    const auto [plain_s, traced_s] = bench::pairedSeconds(
        n,
        [&](std::size_t i) {
            plain_insts[i] = ch.run(profiles[i % profiles.size()], opts)
                                 .counters.instructions;
        },
        [&](std::size_t i) {
            const auto cap =
                ch.capture(profiles[i % profiles.size()], opts);
            traced_insts[i] = cap.result.counters.instructions;
            events += cap.trace.events.totalPushed();
            records += cap.trace.samples.totalPushed();
        });
    for (std::size_t i = 0; i < n; ++i) {
        if (traced_insts[i] != plain_insts[i]) {
            ctx.fail(profiles[i % profiles.size()].name +
                     ": traced window diverged");
            return;
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
