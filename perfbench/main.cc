/**
 * @file
 * perfbench: run one benchmark workload and print its metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out FILE] [--workdir DIR] [--quick]
 *
 * The last stdout line is the result object
 * {"correct","attempted","failed","metrics"}: the end-to-end metrics
 * of an untraced run (--trace 0) or the per-layer metrics of a
 * traced one (--trace 1). Lines before it are human-readable notes.
 * Scratch files (the lint corpus, the serve journal) live under
 * DIR/run-PID, which is removed on exit. Exit 0 when a result was
 * printed, 1 when the run could not complete, 2 on bad usage.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include <malloc.h>
#include <unistd.h>

#include "workloads.hh"

namespace fs = std::filesystem;
using namespace perfbench;

namespace
{

int
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--workdir DIR] "
                 "[--quick]\nworkloads:",
                 why.c_str());
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parseNumber(const std::string &text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return !text.empty() && end != nullptr && *end == '\0' && out >= 0.0;
}

/** The metrics this run prints, in definition order; a per-layer
 *  metric the workload lacks prints as 0. */
bool
selectMetrics(Outcome &out, bool trace)
{
    const auto &defs = trace ? perLayerMetrics() : endToEndMetrics();
    std::vector<Metric> chosen;
    bool complete = true;
    for (const MetricDef &d : defs) {
        const Metric *found = nullptr;
        for (const Metric &m : out.metrics)
            if (m.name == d.name)
                found = &m;
        if (found == nullptr && !trace) {
            std::fprintf(stderr, "perfbench: no value for %s\n",
                         d.name.c_str());
            complete = false;
            continue;
        }
        chosen.push_back({d.name, d.unit, found ? found->value : 0.0});
    }
    out.metrics = std::move(chosen);
    return complete;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, traceOut, workdir = "perfbench-work";
    RunArgs args;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            args.quick = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(arg + " needs a value");
        const std::string value = argv[++i];
        double number = 0.0;
        if (arg == "--workload") {
            workload = value;
        } else if (arg == "--trace-out") {
            traceOut = value;
        } else if (arg == "--workdir") {
            workdir = value;
        } else if (!parseNumber(value, number)) {
            return usage("bad value '" + value + "' for " + arg);
        } else if (arg == "--seed") {
            args.seed = static_cast<std::uint64_t>(number);
            haveSeed = true;
        } else if (arg == "--seconds") {
            args.seconds = number;
            haveSeconds = true;
        } else if (arg == "--trace") {
            if (number != 0.0 && number != 1.0)
                return usage("--trace takes 0 or 1");
            args.trace = number == 1.0;
            haveTrace = true;
        } else {
            return usage("unknown option '" + arg + "'");
        }
    }
    const Workload *w = findWorkload(workload);
    if (w == nullptr)
        return usage("unknown workload '" + workload + "'");
    if (!haveSeed || !haveSeconds || !haveTrace)
        return usage("--seed, --seconds and --trace are required");

    // Work in a private directory so concurrent runs never collide
    // and relative paths (the lint report's) do not depend on where
    // the checkout lives.
    std::error_code ec;
    if (!traceOut.empty())
        traceOut = fs::absolute(traceOut, ec).string();
    const fs::path runDir =
        fs::absolute(workdir, ec) / ("run-" + std::to_string(getpid()));
    fs::remove_all(runDir, ec);
    fs::create_directories(runDir, ec);
    if (ec) {
        std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                     runDir.c_str(), ec.message().c_str());
        return 1;
    }
    fs::current_path(runDir);

    // One malloc arena: otherwise which threads get which arena, and
    // so peak RSS, changes from run to run with thread timing.
    mallopt(M_ARENA_MAX, 1);

    int status = 0;
    try {
        Outcome out = w->run(args);
        if (!args.trace)
            out.set("peak_rss_mb", "MB", peakRssMb());
        if (out.attempted == 0)
            out.fail("no operation ran");
        if (!selectMetrics(out, args.trace))
            status = 1;
        if (!traceOut.empty() && args.trace) {
            std::ofstream file(traceOut, std::ios::binary);
            file << chromeTraceJson(out.spans) << '\n';
            if (!file) {
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             traceOut.c_str());
                status = 1;
            }
        }
        if (status == 0) {
            for (const std::string &line : out.notes)
                std::printf("# %s\n", line.c_str());
            std::printf("%s\n", resultJson(out).c_str());
        }
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "perfbench: %s: %s\n", w->name.c_str(),
                     ex.what());
        status = 1;
    }
    fs::current_path(runDir.parent_path(), ec);
    fs::remove_all(runDir, ec);
    return status;
}
