/**
 * @file
 * `netchar` — command-line driver for the characterization toolkit.
 *
 *   netchar list [dotnet|aspnet|spec]
 *   netchar characterize <benchmark> [options]
 *   netchar topdown <benchmark> [options]
 *   netchar trace <benchmark> [options]            (timeline export)
 *   netchar suite <dotnet|aspnet|spec> [options]   (CSV/JSON export)
 *   netchar subset <dotnet|aspnet|spec> [--size K] [options]
 *   netchar serve <LISTEN> [options]               (daemon)
 *   netchar query <ADDR[,ADDR...]> [options]       (daemon client)
 *
 * docs/CLI.md documents every subcommand, option, exit code and an
 * example transcript per command; keep it in sync with usage().
 */

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/characterize.hh"
#include "core/export.hh"
#include "core/report.hh"
#include "core/subset.hh"
#include "core/topdown.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/shard.hh"
#include "stats/json.hh"
#include "stats/textio.hh"
#include "trace/analyzer.hh"
#include "trace/export_trace.hh"
#include "workloads/registry.hh"

using namespace netchar;

namespace
{

struct CliOptions
{
    std::string machine = "i9";
    std::string format = "text";
    RunOptions run;
    Parallelism par;
    bool stats = false;
    std::size_t subsetSize = 8;
    /** trace: re-slice summary interval in simulated ms. */
    double intervalMs = 1.0;
    /** trace / suite --trace-out: event ring capacity. */
    std::size_t bufferEvents = 65'536;
    /** suite: directory for per-benchmark chrome traces. */
    std::string traceOut;
    /** suite/subset: chaos spec ("rate=...,kinds=...,seed=..."). */
    std::string chaosSpec;
    /** suite/subset: failure-ledger output file (.json = JSON). */
    std::string ledgerFile;
};

/** Exit code for a sweep that lost some (not all) runs. */
constexpr int kExitPartialFailure = 2;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: netchar <command> [args]\n"
        "  list [dotnet|aspnet|spec]        list benchmarks\n"
        "  machines                         list machine models\n"
        "  characterize <benchmark>         Table I metrics\n"
        "  topdown <benchmark>              Top-Down profile\n"
        "  trace <benchmark>                timeline trace export\n"
        "  suite <dotnet|aspnet|spec>       whole-suite export\n"
        "  subset <dotnet|aspnet|spec>      representative subset\n"
        "  serve <LISTEN>                   characterization daemon\n"
        "                                   (host:port or socket\n"
        "                                   path; see --shard)\n"
        "  query <ADDR[,ADDR...]>           query serve daemon(s)\n"
        "run options (characterize/topdown/trace/suite/subset):\n"
        "  --machine i9|xeon|arm   machine model (default i9)\n"
        "  --cores N               active cores (default 1)\n"
        "  --warmup N              warmup instructions\n"
        "  --measure N             measured instructions\n"
        "  --seed N                run seed (default 1)\n"
        "command-specific options:\n"
        "  --format text|csv|json  characterize/topdown/suite only\n"
        "  --format chrome|csv     trace: export format (default\n"
        "                          chrome, a chrome://tracing JSON)\n"
        "  --interval MS           trace: re-slice summary interval\n"
        "                          in simulated ms (default 1)\n"
        "  --buffer-events N       trace: event ring capacity\n"
        "                          (default 65536, drop-oldest)\n"
        "  --trace-out DIR         suite: also capture and write one\n"
        "                          chrome trace per benchmark to DIR\n"
        "  --jobs N                suite/subset: parallel runs\n"
        "                          (0 = one per hardware thread)\n"
        "  --stats                 suite: run ledger on stderr\n"
        "  --size K                subset: subset size (default 8)\n"
        "failure handling (suite/subset):\n"
        "  --chaos SPEC            inject deterministic faults, e.g.\n"
        "                          rate=0.1,kinds=throw+stall,seed=7\n"
        "  --keep-going            sweep past failed runs (default)\n"
        "  --fail-fast             abort the sweep on first failure\n"
        "  --max-attempts N        attempts per run (default 2)\n"
        "  --quarantine-after N    stop retrying a run after N\n"
        "                          consecutive failures (default off)\n"
        "  --run-budget CYCLES     per-run simulated-cycle watchdog\n"
        "  --backoff-us N          retry backoff base, microseconds\n"
        "  --ledger FILE           write the failure ledger (CSV, or\n"
        "                          JSON when FILE ends in .json)\n"
        "serve options:\n"
        "  --jobs N                run/sweep concurrency (0 = auto)\n"
        "  --shard I/N             answer sweeps for round-robin\n"
        "                          slice I of N (default 0/1)\n"
        "  --max-attempts N        attempts per sweep run\n"
        "  --cache-entries N       result-cache entries (def. 256)\n"
        "  --cache-bytes N         result-cache byte budget\n"
        "  --cache-persist FILE    persist the cache in the journal\n"
        "                          FILE.journal (replayed on start)\n"
        "  --max-pending N         requests admitted per poll round;\n"
        "                          excess shed with `overloaded`\n"
        "  --max-pending-bytes N   request bytes admitted per round\n"
        "  --max-line-bytes N      longest accepted request line\n"
        "  --retry-after-ms N      overloaded retry hint (def. 25)\n"
        "  --idle-timeout-ms N     evict silent peers (def. 30000)\n"
        "  --checkpoint-bytes N    appended journal bytes before\n"
        "                          compaction\n"
        "  --chaos-wire SPEC       seeded wire faults, e.g. rate=\n"
        "                          0.25,kinds=split+reset,seed=9\n"
        "query options:\n"
        "  --verb V                ping|run|sweep|subset|stats|\n"
        "                          shutdown (default ping)\n"
        "  --benchmark NAME        run: benchmark to characterize\n"
        "  --suite S               sweep/subset: dotnet|aspnet|spec\n"
        "  --merge                 sweep: merge the shard partials\n"
        "                          of all ADDRs into the bytes\n"
        "                          `netchar suite` would print\n"
        "  --retries N             attempts per request (default 5)\n"
        "  --backoff-us N          retry backoff base, microseconds\n"
        "  --deadline-ms N         overall budget across retries;\n"
        "                          also sent as the request deadline\n"
        "  --io-timeout-ms N       per-send/recv timeout\n"
        "  (plus --machine/--format/--size and run options above)\n"
        "exit codes: 0 clean, 1 usage/total failure, 2 partial\n"
        "see docs/CLI.md for details and example transcripts\n");
    return EXIT_FAILURE;
}

sim::MachineConfig
machineFor(const std::string &name)
{
    if (const auto *model = sim::findMachineModel(name))
        return model->make();
    std::fprintf(stderr, "unknown machine '%s'\n", name.c_str());
    std::exit(EXIT_FAILURE);
}

/**
 * Cursor over one subcommand's flags. value() takes the current
 * flag's argument; number() also requires a decimal unsigned integer
 * that fits its destination, so "--seed -1" or "--cores 4294967297"
 * is an error instead of a silent wrap or truncation. Both exit 1
 * naming the flag.
 */
struct FlagCursor
{
    int argc;
    char **argv;
    int i;
    std::string arg;

    /** Step to the next flag; false past the end. */
    bool
    next()
    {
        if (++i >= argc)
            return false;
        arg = argv[i];
        return true;
    }

    std::string
    value()
    {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s needs a value\n", arg.c_str());
            std::exit(EXIT_FAILURE);
        }
        return argv[++i];
    }

    template <typename T>
    void
    number(T &dest)
    {
        const std::string text = value();
        if (parseUnsigned(text, dest))
            return;
        std::fprintf(stderr,
                     "netchar: %s expects an unsigned integer up to "
                     "%s, got '%s'\n",
                     arg.c_str(),
                     std::to_string(std::numeric_limits<T>::max())
                         .c_str(),
                     text.c_str());
        std::exit(EXIT_FAILURE);
    }
};

CliOptions
parseOptions(int argc, char **argv, int first)
{
    CliOptions opts;
    for (FlagCursor f{argc, argv, first - 1, {}}; f.next();) {
        const std::string &arg = f.arg;
        auto nextPositiveDouble = [&]() -> double {
            const std::string value = f.value();
            try {
                std::size_t used = 0;
                const double d = std::stod(value, &used);
                if (used == value.size() && d > 0.0)
                    return d;
            } catch (const std::exception &) {
            }
            std::fprintf(
                stderr,
                "netchar: %s expects a positive number, got '%s'\n",
                arg.c_str(), value.c_str());
            std::exit(EXIT_FAILURE);
        };
        if (arg == "--machine")
            opts.machine = f.value();
        else if (arg == "--cores")
            f.number(opts.run.cores);
        else if (arg == "--warmup")
            f.number(opts.run.warmupInstructions);
        else if (arg == "--measure")
            f.number(opts.run.measuredInstructions);
        else if (arg == "--seed")
            f.number(opts.run.seed);
        else if (arg == "--size")
            f.number(opts.subsetSize);
        else if (arg == "--format")
            opts.format = f.value();
        else if (arg == "--jobs")
            f.number(opts.par.jobs);
        else if (arg == "--stats")
            opts.stats = true;
        else if (arg == "--interval")
            opts.intervalMs = nextPositiveDouble();
        else if (arg == "--buffer-events")
            f.number(opts.bufferEvents);
        else if (arg == "--trace-out")
            opts.traceOut = f.value();
        else if (arg == "--chaos") {
            opts.chaosSpec = f.value();
            try {
                FaultPlan::parse(opts.chaosSpec); // validate early
            } catch (const std::exception &ex) {
                std::fprintf(stderr, "netchar: %s\n", ex.what());
                std::exit(EXIT_FAILURE);
            }
        } else if (arg == "--keep-going")
            opts.par.resilience.keepGoing = true;
        else if (arg == "--fail-fast")
            opts.par.resilience.keepGoing = false;
        else if (arg == "--max-attempts") {
            f.number(opts.par.maxAttempts);
            if (opts.par.maxAttempts == 0) {
                std::fprintf(
                    stderr,
                    "netchar: --max-attempts must be >= 1\n");
                std::exit(EXIT_FAILURE);
            }
        } else if (arg == "--quarantine-after")
            f.number(opts.par.resilience.quarantineAfter);
        else if (arg == "--run-budget")
            f.number(opts.run.runBudgetCycles);
        else if (arg == "--backoff-us")
            f.number(opts.par.resilience.backoffBaseMicros);
        else if (arg == "--ledger")
            opts.ledgerFile = f.value();
        else {
            // Name the offending flag first, then the usage block,
            // so the error survives a scrolled-off screen.
            std::fprintf(stderr, "netchar: unknown option '%s'\n\n",
                         arg.c_str());
            std::exit(usage());
        }
    }
    return opts;
}

/** Render the run ledger to stderr (text table, CSV or JSON). */
void
printStats(const SuiteRunStats &stats, const std::string &format)
{
    if (format == "csv") {
        std::fprintf(stderr, "%s", suiteStatsCsv(stats).c_str());
        return;
    }
    if (format == "json") {
        std::fprintf(stderr, "%s\n", suiteStatsJson(stats).c_str());
        return;
    }
    TextTable table(
        {"#", "Benchmark", "Attempts", "Ok", "Wall s", "Worker"});
    for (const auto &r : stats.runs) {
        table.addRow({std::to_string(r.index), r.benchmark,
                      std::to_string(r.attempts),
                      r.succeeded ? "yes" : "NO",
                      fmtFixed(r.wallSeconds, 3),
                      std::to_string(r.worker)});
    }
    std::fprintf(stderr, "%s", table.render().c_str());
    std::fprintf(
        stderr,
        "jobs %u  wall %ss  busy %ss  utilization %s  steals %llu  "
        "retried %u  failed %u\n",
        stats.jobs, fmtFixed(stats.wallSeconds, 3).c_str(),
        fmtFixed(stats.busySeconds, 3).c_str(),
        fmtPercent(stats.utilization()).c_str(),
        static_cast<unsigned long long>(stats.steals),
        stats.retriedRuns(), stats.failedRuns());
}

/** Write the failure ledger to `file` (.json = JSON, else CSV). */
bool
writeLedger(const SuiteRunStats &stats, const std::string &file)
{
    if (file.empty())
        return true;
    std::ofstream out(file, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "cannot write '%s'\n", file.c_str());
        return false;
    }
    const bool json = file.size() >= 5 &&
                      file.compare(file.size() - 5, 5, ".json") == 0;
    if (json)
        out << failureLedgerJson(stats) << '\n';
    else
        out << failureLedgerCsv(stats);
    return true;
}

/** Warn about lost runs; clean / partial / total-failure exit code. */
int
sweepExitCode(const SuiteRunStats &stats)
{
    for (const auto &r : stats.runs) {
        if (r.skipped)
            std::fprintf(stderr,
                         "warning: %s skipped (fail-fast abort)\n",
                         r.benchmark.c_str());
        else if (!r.succeeded)
            std::fprintf(
                stderr,
                "warning: %s failed after %u attempts%s: %s\n",
                r.benchmark.c_str(), r.attempts,
                r.quarantined ? " (quarantined)" : "",
                r.error.c_str());
    }
    const unsigned failed = stats.failedRuns();
    if (failed == 0)
        return EXIT_SUCCESS;
    return failed >= stats.runs.size() ? EXIT_FAILURE
                                       : kExitPartialFailure;
}

int
cmdMachines()
{
    TextTable table({"Key", "Name", "Cores", "L2", "LLC", "Slices",
                     "Max GHz"});
    for (const auto &model : sim::machineModels()) {
        const sim::MachineConfig cfg = model.make();
        table.addRow(
            {std::string(model.key), cfg.name,
             std::to_string(cfg.physicalCores) + "/" +
                 std::to_string(cfg.logicalCores),
             std::to_string(cfg.l2.sizeBytes / 1024) + "KiB",
             std::to_string(cfg.llc.sizeBytes / (1024 * 1024)) + "MiB",
             std::to_string(cfg.llcSlices), fmtFixed(cfg.maxGhz, 1)});
    }
    std::printf("%s", table.render().c_str());
    return EXIT_SUCCESS;
}

int
cmdList(const std::string &filter)
{
    std::vector<wl::WorkloadProfile> profiles;
    if (filter.empty()) {
        profiles = wl::allProfiles();
    } else if (const auto suite = wl::suiteForKey(filter)) {
        profiles = wl::suiteProfiles(*suite);
    } else {
        return usage();
    }
    for (const auto &p : profiles)
        std::printf("%-38s %-11s %s\n", p.name.c_str(),
                    wl::suiteName(p.suite).c_str(),
                    p.description.c_str());
    return EXIT_SUCCESS;
}

int
cmdCharacterize(const std::string &name, const CliOptions &opts,
                bool topdown_view)
{
    const auto profile = wl::findProfile(name);
    if (!profile) {
        std::fprintf(stderr, "unknown benchmark '%s'\n", name.c_str());
        return EXIT_FAILURE;
    }
    Characterizer ch(machineFor(opts.machine));
    const auto result = ch.run(*profile, opts.run);

    if (opts.format == "json") {
        std::printf("%s\n", runResultJson(name, result).c_str());
        return EXIT_SUCCESS;
    }
    if (opts.format == "csv") {
        std::printf("%s", topdown_view
                              ? topdownCsv({name}, {result}).c_str()
                              : metricsCsv({name}, {result}).c_str());
        return EXIT_SUCCESS;
    }
    if (topdown_view) {
        std::printf("%s", barChart(name + " Top-Down level 1",
                                   level1Rows(result.slots), 40, 1.0)
                              .c_str());
        std::printf("%s", barChart("Frontend shares",
                                   frontendRows(result.slots), 40, 1.0)
                              .c_str());
        std::printf("%s", barChart("Backend shares",
                                   backendRows(result.slots), 40, 1.0)
                              .c_str());
    } else {
        TextTable table({"Metric", "Value", "Unit"});
        for (const auto &info : metricTable()) {
            table.addRow(
                {std::string(info.name),
                 fmtFixed(result.metrics[static_cast<std::size_t>(
                              info.id)],
                          3),
                 std::string(info.unit)});
        }
        std::printf("%s", table.render().c_str());
    }
    return EXIT_SUCCESS;
}

/** Benchmark name -> filesystem-safe file stem. */
std::string
fileStem(const std::string &name)
{
    std::string stem = name;
    for (char &c : stem) {
        if (!std::isalnum(static_cast<unsigned char>(c)) &&
            c != '-' && c != '_' && c != '.')
            c = '_';
    }
    return stem;
}

int
cmdTrace(const std::string &name, const CliOptions &opts)
{
    const auto profile = wl::findProfile(name);
    if (!profile) {
        std::fprintf(stderr, "unknown benchmark '%s'\n", name.c_str());
        return EXIT_FAILURE;
    }
    if (opts.format != "text" && opts.format != "chrome" &&
        opts.format != "csv") {
        std::fprintf(stderr,
                     "netchar trace: --format must be chrome or "
                     "csv, got '%s'\n",
                     opts.format.c_str());
        return EXIT_FAILURE;
    }
    Characterizer ch(machineFor(opts.machine));
    TraceOptions topts;
    topts.bufferEvents = opts.bufferEvents;
    const auto cap = ch.capture(*profile, opts.run, topts);

    if (opts.format == "csv")
        std::printf("%s", trace::traceCsv(cap.trace).c_str());
    else
        std::printf("%s\n",
                    trace::chromeTraceJson(cap.trace).c_str());

    // Capture summary on stderr, including a re-slice at --interval
    // to show the trace's analysis-time sampling.
    const trace::TraceAnalyzer analyzer(cap.trace);
    const auto summary = analyzer.summary();
    const auto slices = analyzer.resliceMillis(opts.intervalMs);
    std::uint64_t retained = 0;
    for (const auto count : summary.eventCounts)
        retained += count;
    std::fprintf(
        stderr,
        "  %llu runtime events retained (%llu dropped), "
        "%zu counter records (%llu dropped)\n"
        "  span %s simulated ms; %zu samples at %s ms\n",
        static_cast<unsigned long long>(retained),
        static_cast<unsigned long long>(summary.droppedEvents),
        summary.counterSamples,
        static_cast<unsigned long long>(summary.droppedSamples),
        fmtFixed(cap.trace.micros(summary.spanCycles) / 1e3, 3)
            .c_str(),
        slices.size(), fmtFixed(opts.intervalMs, 3).c_str());
    return EXIT_SUCCESS;
}

/**
 * The preamble suite and subset share: arm --chaos in `chaos` (the
 * returned policy points at it, so it must outlive the sweep) and
 * announce the sweep on stderr.
 */
Parallelism
sweepPolicy(const CliOptions &opts, FaultPlan &chaos, std::size_t count)
{
    Parallelism par = opts.par;
    if (!opts.chaosSpec.empty()) {
        chaos = FaultPlan::parse(opts.chaosSpec);
        par.resilience.chaos = &chaos;
        std::fprintf(stderr, "  chaos: %s\n",
                     chaos.describe().c_str());
    }
    if (par.jobs)
        std::fprintf(stderr, "  %zu benchmarks, %u job(s) ...\n",
                     count, par.jobs);
    else
        std::fprintf(stderr, "  %zu benchmarks, auto jobs ...\n",
                     count);
    return par;
}

int
cmdSuite(const std::string &suite_name, const CliOptions &opts)
{
    const auto suite = wl::suiteForKey(suite_name);
    if (!suite)
        return usage();
    const auto profiles = wl::suiteProfiles(*suite);
    Characterizer ch(machineFor(opts.machine));
    FaultPlan chaos;
    const Parallelism par = sweepPolicy(opts, chaos, profiles.size());

    std::vector<std::string> names;
    for (const auto &p : profiles)
        names.push_back(p.name);
    SuiteRunStats stats;
    std::vector<RunResult> results;
    std::size_t traces = 0;
    if (opts.traceOut.empty()) {
        results = ch.runAll(profiles, opts.run, par, &stats);
    } else {
        // Capture path: every benchmark runs with tracing on and its
        // chrome trace lands in --trace-out; metrics come from the
        // same runs (capture derives RunResult like run() does).
        TraceOptions topts;
        topts.bufferEvents = opts.bufferEvents;
        const auto captures =
            ch.captureAll(profiles, opts.run, topts, par, &stats);
        std::error_code ec;
        std::filesystem::create_directories(opts.traceOut, ec);
        if (ec) {
            std::fprintf(stderr, "cannot create '%s': %s\n",
                         opts.traceOut.c_str(),
                         ec.message().c_str());
            return EXIT_FAILURE;
        }
        results.reserve(captures.size());
        for (std::size_t i = 0; i < captures.size(); ++i) {
            results.push_back(captures[i].result);
            // A failed capture left an empty default trace at its
            // slot: it has no benchmark name and nothing to write.
            if (!stats.runs[i].succeeded)
                continue;
            const auto path = std::filesystem::path(opts.traceOut) /
                (fileStem(captures[i].trace.benchmark) + ".trace.json");
            std::ofstream file(path, std::ios::binary);
            if (!file) {
                std::fprintf(stderr, "cannot write '%s'\n",
                             path.string().c_str());
                return EXIT_FAILURE;
            }
            file << trace::chromeTraceJson(captures[i].trace) << '\n';
            ++traces;
        }
    }
    if (opts.format == "json")
        std::printf("%s\n", suiteJson(names, results).c_str());
    else
        std::printf("%s", metricsCsv(names, results).c_str());
    if (!opts.traceOut.empty())
        std::fprintf(stderr, "  wrote %zu trace(s) to %s\n", traces,
                     opts.traceOut.c_str());
    if (opts.stats)
        printStats(stats, opts.format);
    if (!writeLedger(stats, opts.ledgerFile))
        return EXIT_FAILURE;
    return sweepExitCode(stats);
}

int
cmdSubset(const std::string &suite_name, const CliOptions &opts)
{
    const auto suite = wl::suiteForKey(suite_name);
    if (!suite)
        return usage();
    const auto profiles = wl::suiteProfiles(*suite);
    Characterizer ch(machineFor(opts.machine));
    FaultPlan chaos;
    const Parallelism par = sweepPolicy(opts, chaos, profiles.size());

    SuiteRunStats stats;
    const auto results = ch.runAll(profiles, opts.run, par, &stats);
    if (!writeLedger(stats, opts.ledgerFile))
        return EXIT_FAILURE;

    const int sweep_code = sweepExitCode(stats);
    if (sweep_code == EXIT_FAILURE)
        return EXIT_FAILURE;

    // Keep-going semantics: build the subset over surviving rows,
    // keeping the original benchmark names attached.
    SubsetOptions sopts;
    sopts.subsetSize = opts.subsetSize;
    SurvivorSubset survivors;
    try {
        survivors = buildSurvivorSubset(results, stats, sopts);
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "error: %s\n", ex.what());
        return EXIT_FAILURE;
    }
    const SubsetResult &subset = survivors.subset;
    std::printf("# representative subset (%zu of %zu surviving, "
                "%zu total), PRCO variance %s\n",
                subset.representatives.size(), survivors.surviving,
                profiles.size(),
                fmtPercent(subset.pca.cumulativeExplained()).c_str());
    for (std::size_t c = 0; c < subset.clusters.size(); ++c) {
        std::printf("%s  (cluster of %zu)\n",
                    profiles[subset.representatives[c]].name.c_str(),
                    subset.clusters[c].size());
    }
    return sweep_code;
}

int
cmdServe(int argc, char **argv)
{
    serve::ServerOptions sopts;
    sopts.listen = argv[2];
    for (FlagCursor f{argc, argv, 2, {}}; f.next();) {
        const std::string &arg = f.arg;
        if (arg == "--jobs")
            f.number(sopts.jobs);
        else if (arg == "--max-attempts")
            f.number(sopts.maxAttempts);
        else if (arg == "--shard") {
            std::string error;
            if (!serve::parseShardSpec(f.value(), sopts.shard,
                                       sopts.shards, error)) {
                std::fprintf(stderr, "netchar serve: %s\n",
                             error.c_str());
                return EXIT_FAILURE;
            }
        } else if (arg == "--cache-entries")
            f.number(sopts.cache.maxEntries);
        else if (arg == "--cache-bytes")
            f.number(sopts.cache.maxBytes);
        else if (arg == "--cache-persist")
            sopts.persistPath = f.value();
        else if (arg == "--max-pending")
            f.number(sopts.maxBatchRequests);
        else if (arg == "--max-pending-bytes")
            f.number(sopts.maxBatchBytes);
        else if (arg == "--max-line-bytes")
            f.number(sopts.maxLineBytes);
        else if (arg == "--retry-after-ms")
            f.number(sopts.retryAfterMs);
        else if (arg == "--idle-timeout-ms")
            f.number(sopts.idleTimeoutMs);
        else if (arg == "--checkpoint-bytes")
            f.number(sopts.checkpointBytes);
        else if (arg == "--chaos-wire") {
            try {
                sopts.chaosWire = WireFaultPlan::parse(f.value());
            } catch (const std::exception &ex) {
                std::fprintf(stderr, "netchar serve: %s\n",
                             ex.what());
                return EXIT_FAILURE;
            }
        } else {
            std::fprintf(stderr, "netchar: unknown option '%s'\n\n",
                         arg.c_str());
            return usage();
        }
    }
    if (sopts.maxAttempts == 0) {
        std::fprintf(stderr,
                     "netchar: --max-attempts must be >= 1\n");
        return EXIT_FAILURE;
    }

    serve::Server server(sopts);
    std::string error;
    if (!server.start(error)) {
        std::fprintf(stderr, "netchar serve: %s\n", error.c_str());
        return EXIT_FAILURE;
    }
    // SIGTERM/SIGINT drain gracefully: in-flight work finishes, new
    // work is refused with `draining`, the cache is checkpointed,
    // and serve() returns 0.
    serve::Server::installDrainSignalHandlers();
    // Scripts scrape this line for the bound address (port 0 picks
    // a free port); keep it the first thing on stdout.
    std::printf("LISTENING %s\n", server.address().c_str());
    std::fflush(stdout);
    std::fprintf(stderr,
                 "  serving on %s  shard %u/%u  %u job(s)\n",
                 server.address().c_str(), sopts.shard, sopts.shards,
                 sopts.jobs);
    return server.serve();
}

/** Raw body text of a response line (the bytes after `,"body":` up
 *  to the closing brace — re-rendering via the JSON model could
 *  disturb byte-identity, so the substring is spliced out). */
bool
extractBody(const std::string &response, std::string &body)
{
    const auto pos = response.find(",\"body\":");
    if (pos == std::string::npos || response.empty() ||
        response.back() != '}')
        return false;
    const auto start = pos + 8;
    body = response.substr(start, response.size() - start - 1);
    return true;
}

int
cmdQuery(int argc, char **argv)
{
    std::vector<std::string> addresses;
    {
        const std::string spec = argv[2];
        std::size_t start = 0;
        while (start <= spec.size()) {
            const auto comma = spec.find(',', start);
            if (comma == std::string::npos) {
                addresses.push_back(spec.substr(start));
                break;
            }
            addresses.push_back(spec.substr(start, comma - start));
            start = comma + 1;
        }
    }

    serve::Request req;
    std::string verb = "ping";
    bool merge = false;
    std::string ledger_file;
    serve::ClientOptions copts;
    for (FlagCursor f{argc, argv, 2, {}}; f.next();) {
        const std::string &arg = f.arg;
        if (arg == "--verb")
            verb = f.value();
        else if (arg == "--benchmark")
            req.benchmark = f.value();
        else if (arg == "--suite")
            req.suite = f.value();
        else if (arg == "--machine")
            req.machine = f.value();
        else if (arg == "--format")
            req.format = f.value();
        else if (arg == "--size")
            f.number(req.subsetSize);
        else if (arg == "--cores")
            f.number(req.options.cores);
        else if (arg == "--warmup")
            f.number(req.options.warmupInstructions);
        else if (arg == "--measure")
            f.number(req.options.measuredInstructions);
        else if (arg == "--seed")
            f.number(req.options.seed);
        else if (arg == "--merge")
            merge = true;
        else if (arg == "--ledger")
            ledger_file = f.value();
        else if (arg == "--retries")
            f.number(copts.maxAttempts);
        else if (arg == "--backoff-us")
            f.number(copts.backoffBaseMicros);
        else if (arg == "--deadline-ms") {
            // One budget, both ends: the client stops retrying and
            // the server sheds the request once it expires in queue.
            f.number(copts.deadlineMs);
            req.deadlineMs = copts.deadlineMs;
        } else if (arg == "--io-timeout-ms")
            f.number(copts.ioTimeoutMs);
        else {
            std::fprintf(stderr, "netchar: unknown option '%s'\n\n",
                         arg.c_str());
            return usage();
        }
    }

    if (const auto named = serve::verbNamed(verb)) {
        req.verb = *named;
    } else {
        std::fprintf(stderr, "netchar query: unknown verb '%s'\n",
                     verb.c_str());
        return EXIT_FAILURE;
    }
    if (merge && req.verb != serve::Verb::Sweep) {
        std::fprintf(stderr,
                     "netchar query: --merge needs --verb sweep\n");
        return EXIT_FAILURE;
    }
    if (!merge && addresses.size() != 1) {
        std::fprintf(stderr, "netchar query: multiple addresses "
                             "need --merge\n");
        return EXIT_FAILURE;
    }

    std::string line;
    try {
        line = serve::requestLine(req);
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "netchar query: %s\n", ex.what());
        return EXIT_FAILURE;
    }

    std::vector<std::string> responses;
    std::vector<JsonValue> docs;
    for (const std::string &address : addresses) {
        serve::ClientOptions one = copts;
        one.address = address;
        serve::Client client(one);
        std::string response, error;
        if (!client.request(line, response, error)) {
            std::fprintf(stderr, "netchar query: %s: %s\n",
                         address.c_str(), error.c_str());
            return EXIT_FAILURE;
        }
        JsonValue doc;
        std::string jerr;
        if (!parseJson(response, doc, jerr)) {
            std::fprintf(stderr,
                         "netchar query: %s: bad response: %s\n",
                         address.c_str(), jerr.c_str());
            return EXIT_FAILURE;
        }
        const JsonValue *ok = doc.find("ok");
        if (ok == nullptr ||
            ok->kind != JsonValue::Kind::Bool) {
            std::fprintf(stderr,
                         "netchar query: %s: response without ok\n",
                         address.c_str());
            return EXIT_FAILURE;
        }
        if (!ok->boolean) {
            const JsonValue *err = doc.find("error");
            std::fprintf(stderr,
                         "netchar query: %s: server error: %s\n",
                         address.c_str(),
                         err != nullptr && err->isString()
                             ? err->string.c_str()
                             : "(no message)");
            return EXIT_FAILURE;
        }
        const JsonValue *cache = doc.find("cache");
        const JsonValue *key = doc.find("key");
        if (cache != nullptr && cache->isString() && key != nullptr &&
            key->isString())
            std::fprintf(stderr, "  %s: cache %s (key %s)\n",
                         address.c_str(), cache->string.c_str(),
                         key->string.c_str());
        responses.push_back(std::move(response));
        docs.push_back(std::move(doc));
    }

    if (!merge) {
        std::string body;
        if (!extractBody(responses.front(), body)) {
            std::fprintf(stderr,
                         "netchar query: response without body\n");
            return EXIT_FAILURE;
        }
        std::printf("%s\n", body.c_str());
        return EXIT_SUCCESS;
    }

    std::vector<serve::SweepPartial> partials;
    for (std::size_t i = 0; i < docs.size(); ++i) {
        const JsonValue *body = docs[i].find("body");
        serve::SweepPartial partial;
        std::string perr;
        if (body == nullptr ||
            !serve::parseSweepBody(*body, partial, perr)) {
            std::fprintf(stderr, "netchar query: %s: %s\n",
                         addresses[i].c_str(), perr.c_str());
            return EXIT_FAILURE;
        }
        partials.push_back(std::move(partial));
    }
    std::string merged, merr;
    if (!serve::mergeSweep(partials, merged, merr)) {
        std::fprintf(stderr, "netchar query: %s\n", merr.c_str());
        return EXIT_FAILURE;
    }
    if (req.format == "json")
        std::printf("%s\n", merged.c_str());
    else
        std::printf("%s", merged.c_str());
    const SuiteRunStats stats = serve::mergeLedgers(partials);
    if (!writeLedger(stats, ledger_file))
        return EXIT_FAILURE;
    if (!stats.failures.empty()) {
        for (const auto &f : stats.failures)
            std::fprintf(stderr,
                         "warning: %s attempt %u failed: %s\n",
                         f.benchmark.c_str(), f.attempt,
                         f.error.c_str());
        return kExitPartialFailure;
    }
    return EXIT_SUCCESS;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];

    if (cmd == "list")
        return cmdList(argc > 2 ? argv[2] : "");
    if (cmd == "machines")
        return cmdMachines();
    if (argc < 3)
        return usage();
    if (cmd == "serve")
        return cmdServe(argc, argv);
    if (cmd == "query")
        return cmdQuery(argc, argv);
    const std::string target = argv[2];
    const auto opts = parseOptions(argc, argv, 3);

    if (cmd == "characterize")
        return cmdCharacterize(target, opts, false);
    if (cmd == "topdown")
        return cmdCharacterize(target, opts, true);
    if (cmd == "trace")
        return cmdTrace(target, opts);
    if (cmd == "suite")
        return cmdSuite(target, opts);
    if (cmd == "subset")
        return cmdSubset(target, opts);
    return usage();
}
