/**
 * @file
 * Quickstart: characterize one benchmark on one machine and print
 * its Table I metrics and Top-Down profile.
 *
 *   ./quickstart [benchmark-name]
 *
 * Walks the three netchar steps: pick a workload profile from the
 * registry, run it through a Characterizer, and inspect the result.
 */

#include <cstdio>
#include <cstdlib>

#include "core/characterize.hh"
#include "core/report.hh"
#include "core/topdown.hh"
#include "workloads/registry.hh"

using namespace netchar;

int
main(int argc, char **argv)
{
    const char *name = argc > 1 ? argv[1] : "System.Linq";
    const auto profile = wl::findProfile(name);
    if (!profile) {
        std::fprintf(stderr,
                     "unknown benchmark '%s'; try one of:\n", name);
        for (const auto &p : wl::allProfiles())
            std::fprintf(stderr, "  %s\n", p.name.c_str());
        return EXIT_FAILURE;
    }

    // 1. Pick a machine (Table II factories or your own config).
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());

    // 2. Run the paper's methodology: warm up, then measure.
    RunOptions options;
    options.warmupInstructions = 600'000;
    const RunResult result = ch.run(*profile, options);

    // 3. Inspect.
    std::printf("=== %s (%s) on %s ===\n", profile->name.c_str(),
                wl::suiteName(profile->suite).c_str(),
                ch.config().name.c_str());
    std::printf("%s\n\n", profile->description.c_str());

    TextTable table({"Metric", "Value", "Unit"});
    for (const auto &info : metricTable()) {
        table.addRow({std::string(info.name),
                      fmtFixed(result.metrics[static_cast<std::size_t>(
                                   info.id)],
                               3),
                      std::string(info.unit)});
    }
    std::printf("%s\n", table.render().c_str());

    std::printf("%s\n", barChart("Top-Down level 1 (fraction of slots)",
                                 level1Rows(result.slots), 40, 1.0)
                            .c_str());

    std::printf("Measured %llu instructions in %.3f ms simulated "
                "time (IPC %.2f)\n",
                static_cast<unsigned long long>(
                    result.counters.instructions),
                result.seconds * 1e3, result.counters.ipc());
    return EXIT_SUCCESS;
}
