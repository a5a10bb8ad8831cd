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
        "  --cache-persist FILE    load/save the cache on start/stop\n"
        "                          (insert journal at FILE.journal)\n"
        "  --max-pending N         requests admitted per poll round;\n"
        "                          excess shed with `overloaded`\n"
        "  --max-pending-bytes N   request bytes admitted per round\n"
        "  --max-line-bytes N      longest accepted request line\n"
        "  --retry-after-ms N      overloaded retry hint (def. 25)\n"
        "  --idle-timeout-ms N     evict silent peers (def. 30000)\n"
        "  --checkpoint-bytes N    journal bytes before compaction\n"
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
    if (name == "i9")
        return sim::MachineConfig::intelCoreI99980Xe();
    if (name == "xeon")
        return sim::MachineConfig::intelXeonE52620V4();
    if (name == "arm")
        return sim::MachineConfig::armServer();
    std::fprintf(stderr, "unknown machine '%s'\n", name.c_str());
    std::exit(EXIT_FAILURE);
}

bool
parseSuite(const std::string &name, wl::Suite &suite)
{
    if (name == "dotnet")
        suite = wl::Suite::DotNet;
    else if (name == "aspnet")
        suite = wl::Suite::AspNet;
    else if (name == "spec")
        suite = wl::Suite::SpecCpu17;
    else
        return false;
    return true;
}

CliOptions
parseOptions(int argc, char **argv, int first)
{
    CliOptions opts;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(EXIT_FAILURE);
            }
            return argv[++i];
        };
        auto nextNumber = [&]() -> std::uint64_t {
            const std::string value = next();
            try {
                std::size_t used = 0;
                const std::uint64_t n = std::stoull(value, &used);
                if (used == value.size())
                    return n;
            } catch (const std::exception &) {
            }
            std::fprintf(stderr,
                         "netchar: %s expects a number, got '%s'\n",
                         arg.c_str(), value.c_str());
            std::exit(EXIT_FAILURE);
        };
        auto nextPositiveDouble = [&]() -> double {
            const std::string value = next();
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
            opts.machine = next();
        else if (arg == "--cores")
            opts.run.cores = static_cast<unsigned>(nextNumber());
        else if (arg == "--warmup")
            opts.run.warmupInstructions = nextNumber();
        else if (arg == "--measure")
            opts.run.measuredInstructions = nextNumber();
        else if (arg == "--seed")
            opts.run.seed = nextNumber();
        else if (arg == "--size")
            opts.subsetSize = nextNumber();
        else if (arg == "--format")
            opts.format = next();
        else if (arg == "--jobs")
            opts.par.jobs = static_cast<unsigned>(nextNumber());
        else if (arg == "--stats")
            opts.stats = true;
        else if (arg == "--interval")
            opts.intervalMs = nextPositiveDouble();
        else if (arg == "--buffer-events")
            opts.bufferEvents =
                static_cast<std::size_t>(nextNumber());
        else if (arg == "--trace-out")
            opts.traceOut = next();
        else if (arg == "--chaos") {
            opts.chaosSpec = next();
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
            opts.par.maxAttempts =
                static_cast<unsigned>(nextNumber());
            if (opts.par.maxAttempts == 0) {
                std::fprintf(
                    stderr,
                    "netchar: --max-attempts must be >= 1\n");
                std::exit(EXIT_FAILURE);
            }
        } else if (arg == "--quarantine-after")
            opts.par.resilience.quarantineAfter =
                static_cast<unsigned>(nextNumber());
        else if (arg == "--run-budget")
            opts.run.runBudgetCycles = nextNumber();
        else if (arg == "--backoff-us")
            opts.par.resilience.backoffBaseMicros = nextNumber();
        else if (arg == "--ledger")
            opts.ledgerFile = next();
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
    const struct
    {
        const char *key;
        sim::MachineConfig cfg;
    } machines[] = {
        {"i9", sim::MachineConfig::intelCoreI99980Xe()},
        {"xeon", sim::MachineConfig::intelXeonE52620V4()},
        {"arm", sim::MachineConfig::armServer()},
    };
    for (const auto &m : machines) {
        table.addRow(
            {m.key, m.cfg.name,
             std::to_string(m.cfg.physicalCores) + "/" +
                 std::to_string(m.cfg.logicalCores),
             std::to_string(m.cfg.l2.sizeBytes / 1024) + "KiB",
             std::to_string(m.cfg.llc.sizeBytes / (1024 * 1024)) +
                 "MiB",
             std::to_string(m.cfg.llcSlices),
             fmtFixed(m.cfg.maxGhz, 1)});
    }
    std::printf("%s", table.render().c_str());
    return EXIT_SUCCESS;
}

int
cmdList(const std::string &filter)
{
    std::vector<wl::WorkloadProfile> profiles;
    wl::Suite suite;
    if (filter.empty()) {
        profiles = wl::allProfiles();
    } else if (parseSuite(filter, suite)) {
        profiles = wl::suiteProfiles(suite);
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
        const auto td = TopDownProfile::fromSlots(result.slots);
        std::printf(
            "%s",
            barChart(name + " Top-Down level 1",
                     {{"Retiring", td.level1.retiring},
                      {"Bad_Speculation", td.level1.badSpeculation},
                      {"Frontend_Bound", td.level1.frontendBound},
                      {"Backend_Bound", td.level1.backendBound}},
                     40, 1.0)
                .c_str());
        std::vector<Bar> fe, be;
        for (const auto &row : frontendRows(td))
            fe.push_back({row.label, row.value});
        for (const auto &row : backendRows(td))
            be.push_back({row.label, row.value});
        std::printf("%s", barChart("Frontend shares", fe, 40, 1.0)
                              .c_str());
        std::printf("%s",
                    barChart("Backend shares", be, 40, 1.0).c_str());
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

int
cmdSuite(const std::string &suite_name, const CliOptions &opts)
{
    wl::Suite suite;
    if (!parseSuite(suite_name, suite))
        return usage();
    const auto profiles = wl::suiteProfiles(suite);
    Characterizer ch(machineFor(opts.machine));

    // The plan must outlive the sweep; par holds a pointer to it.
    FaultPlan chaos;
    Parallelism par = opts.par;
    if (!opts.chaosSpec.empty()) {
        chaos = FaultPlan::parse(opts.chaosSpec);
        par.resilience.chaos = &chaos;
        std::fprintf(stderr, "  chaos: %s\n",
                     chaos.describe().c_str());
    }

    std::vector<std::string> names;
    for (const auto &p : profiles)
        names.push_back(p.name);
    if (par.jobs)
        std::fprintf(stderr, "  %zu benchmarks, %u job(s) ...\n",
                     profiles.size(), par.jobs);
    else
        std::fprintf(stderr, "  %zu benchmarks, auto jobs ...\n",
                     profiles.size());
    if (!opts.traceOut.empty()) {
        // Capture path: every benchmark runs with tracing on and its
        // chrome trace lands in --trace-out; metrics come from the
        // same runs (capture derives RunResult like run() does).
        TraceOptions topts;
        topts.bufferEvents = opts.bufferEvents;
        SuiteRunStats stats;
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
        std::vector<RunResult> results;
        results.reserve(captures.size());
        for (const auto &cap : captures) {
            results.push_back(cap.result);
            const auto path = std::filesystem::path(opts.traceOut) /
                (fileStem(cap.trace.benchmark) + ".trace.json");
            std::ofstream file(path, std::ios::binary);
            if (!file) {
                std::fprintf(stderr, "cannot write '%s'\n",
                             path.string().c_str());
                return EXIT_FAILURE;
            }
            file << trace::chromeTraceJson(cap.trace) << '\n';
        }
        if (opts.format == "json")
            std::printf("%s\n", suiteJson(names, results).c_str());
        else
            std::printf("%s", metricsCsv(names, results).c_str());
        std::fprintf(stderr, "  wrote %zu trace(s) to %s\n",
                     captures.size(), opts.traceOut.c_str());
        if (opts.stats)
            printStats(stats, opts.format);
        if (!writeLedger(stats, opts.ledgerFile))
            return EXIT_FAILURE;
        return sweepExitCode(stats);
    }
    SuiteRunStats stats;
    const auto results = ch.runAll(profiles, opts.run, par, &stats);
    if (opts.format == "json")
        std::printf("%s\n", suiteJson(names, results).c_str());
    else
        std::printf("%s", metricsCsv(names, results).c_str());
    if (opts.stats)
        printStats(stats, opts.format);
    if (!writeLedger(stats, opts.ledgerFile))
        return EXIT_FAILURE;
    return sweepExitCode(stats);
}

int
cmdSubset(const std::string &suite_name, const CliOptions &opts)
{
    wl::Suite suite;
    if (!parseSuite(suite_name, suite))
        return usage();
    const auto profiles = wl::suiteProfiles(suite);
    Characterizer ch(machineFor(opts.machine));

    FaultPlan chaos;
    Parallelism par = opts.par;
    if (!opts.chaosSpec.empty()) {
        chaos = FaultPlan::parse(opts.chaosSpec);
        par.resilience.chaos = &chaos;
        std::fprintf(stderr, "  chaos: %s\n",
                     chaos.describe().c_str());
    }

    if (par.jobs)
        std::fprintf(stderr, "  %zu benchmarks, %u job(s) ...\n",
                     profiles.size(), par.jobs);
    else
        std::fprintf(stderr, "  %zu benchmarks, auto jobs ...\n",
                     profiles.size());
    SuiteRunStats stats;
    const auto results = ch.runAll(profiles, opts.run, par, &stats);
    if (!writeLedger(stats, opts.ledgerFile))
        return EXIT_FAILURE;

    // Keep-going semantics: build the subset over surviving rows,
    // keeping the original benchmark names attached.
    std::vector<MetricVector> rows;
    std::vector<std::size_t> survivors;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (stats.runs[i].succeeded) {
            rows.push_back(results[i].metrics);
            survivors.push_back(i);
        }
    }
    const int sweep_code = sweepExitCode(stats);
    if (sweep_code == EXIT_FAILURE)
        return EXIT_FAILURE;

    SubsetOptions sopts;
    sopts.subsetSize = opts.subsetSize;
    SubsetResult subset;
    try {
        subset = buildSubset(rows, sopts);
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "error: %s\n", ex.what());
        return EXIT_FAILURE;
    }
    std::printf("# representative subset (%zu of %zu surviving, "
                "%zu total), PRCO variance %s\n",
                subset.representatives.size(), rows.size(),
                profiles.size(),
                fmtPercent(subset.pca.cumulativeExplained()).c_str());
    for (std::size_t c = 0; c < subset.clusters.size(); ++c) {
        const std::size_t rep = survivors[subset.representatives[c]];
        std::printf("%s  (cluster of %zu)\n",
                    profiles[rep].name.c_str(),
                    subset.clusters[c].size());
    }
    return sweep_code;
}

int
cmdServe(int argc, char **argv)
{
    serve::ServerOptions sopts;
    sopts.listen = argv[2];
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(EXIT_FAILURE);
            }
            return argv[++i];
        };
        auto nextNumber = [&]() -> std::uint64_t {
            const std::string value = next();
            try {
                std::size_t used = 0;
                const std::uint64_t n = std::stoull(value, &used);
                if (used == value.size())
                    return n;
            } catch (const std::exception &) {
            }
            std::fprintf(stderr,
                         "netchar: %s expects a number, got '%s'\n",
                         arg.c_str(), value.c_str());
            std::exit(EXIT_FAILURE);
        };
        if (arg == "--jobs")
            sopts.jobs = static_cast<unsigned>(nextNumber());
        else if (arg == "--max-attempts")
            sopts.maxAttempts = static_cast<unsigned>(nextNumber());
        else if (arg == "--shard") {
            std::string error;
            if (!serve::parseShardSpec(next(), sopts.shard,
                                       sopts.shards, error)) {
                std::fprintf(stderr, "netchar serve: %s\n",
                             error.c_str());
                return EXIT_FAILURE;
            }
        } else if (arg == "--cache-entries")
            sopts.cache.maxEntries =
                static_cast<std::size_t>(nextNumber());
        else if (arg == "--cache-bytes")
            sopts.cache.maxBytes = nextNumber();
        else if (arg == "--cache-persist")
            sopts.persistPath = next();
        else if (arg == "--max-pending")
            sopts.maxBatchRequests =
                static_cast<std::size_t>(nextNumber());
        else if (arg == "--max-pending-bytes")
            sopts.maxBatchBytes = nextNumber();
        else if (arg == "--max-line-bytes")
            sopts.maxLineBytes =
                static_cast<std::size_t>(nextNumber());
        else if (arg == "--retry-after-ms")
            sopts.retryAfterMs = nextNumber();
        else if (arg == "--idle-timeout-ms")
            sopts.idleTimeoutMs = nextNumber();
        else if (arg == "--checkpoint-bytes")
            sopts.checkpointBytes = nextNumber();
        else if (arg == "--chaos-wire") {
            try {
                sopts.chaosWire = WireFaultPlan::parse(next());
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
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(EXIT_FAILURE);
            }
            return argv[++i];
        };
        auto nextNumber = [&]() -> std::uint64_t {
            const std::string value = next();
            try {
                std::size_t used = 0;
                const std::uint64_t n = std::stoull(value, &used);
                if (used == value.size())
                    return n;
            } catch (const std::exception &) {
            }
            std::fprintf(stderr,
                         "netchar: %s expects a number, got '%s'\n",
                         arg.c_str(), value.c_str());
            std::exit(EXIT_FAILURE);
        };
        if (arg == "--verb")
            verb = next();
        else if (arg == "--benchmark")
            req.benchmark = next();
        else if (arg == "--suite")
            req.suite = next();
        else if (arg == "--machine")
            req.machine = next();
        else if (arg == "--format")
            req.format = next();
        else if (arg == "--size")
            req.subsetSize =
                static_cast<std::size_t>(nextNumber());
        else if (arg == "--cores")
            req.options.cores =
                static_cast<unsigned>(nextNumber());
        else if (arg == "--warmup")
            req.options.warmupInstructions = nextNumber();
        else if (arg == "--measure")
            req.options.measuredInstructions = nextNumber();
        else if (arg == "--seed")
            req.options.seed = nextNumber();
        else if (arg == "--merge")
            merge = true;
        else if (arg == "--ledger")
            ledger_file = next();
        else if (arg == "--retries")
            copts.maxAttempts =
                static_cast<unsigned>(nextNumber());
        else if (arg == "--backoff-us")
            copts.backoffBaseMicros = nextNumber();
        else if (arg == "--deadline-ms") {
            // One budget, both ends: the client stops retrying and
            // the server sheds the request once it expires in queue.
            copts.deadlineMs = nextNumber();
            req.deadlineMs = copts.deadlineMs;
        } else if (arg == "--io-timeout-ms")
            copts.ioTimeoutMs = nextNumber();
        else {
            std::fprintf(stderr, "netchar: unknown option '%s'\n\n",
                         arg.c_str());
            return usage();
        }
    }

    if (verb == "ping")
        req.verb = serve::Verb::Ping;
    else if (verb == "run")
        req.verb = serve::Verb::Run;
    else if (verb == "sweep")
        req.verb = serve::Verb::Sweep;
    else if (verb == "subset")
        req.verb = serve::Verb::Subset;
    else if (verb == "stats")
        req.verb = serve::Verb::Stats;
    else if (verb == "shutdown")
        req.verb = serve::Verb::Shutdown;
    else {
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
    for (std::size_t i = 0; i < responses.size(); ++i) {
        JsonValue doc;
        std::string jerr;
        // Parsed once above; re-parse here to keep ownership simple.
        if (!parseJson(responses[i], doc, jerr)) {
            std::fprintf(stderr, "netchar query: %s\n",
                         jerr.c_str());
            return EXIT_FAILURE;
        }
        const JsonValue *body = doc.find("body");
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
