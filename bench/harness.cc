#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/report.hh"
#include "stats/hostclock.hh"
#include "stats/textio.hh"

namespace netchar::bench
{

// ---------------------------------------------------------------
// Shared run-mode helpers.
// ---------------------------------------------------------------

bool
quickMode()
{
    // NETCHAR_QUICK only scales iteration counts; the quick/full
    // choice is part of the run's recorded configuration (the
    // report's "mode" field), not a hidden nondeterminism source.
    // netchar-lint: allow-flow(flow-env) -- quick-mode scaling is recorded run configuration
    const char *env = std::getenv("NETCHAR_QUICK");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::uint64_t
scaledInstructions(std::uint64_t full)
{
    return quickMode() ? full / 5 : full;
}

// ---------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------

Registry &
Registry::global()
{
    static Registry registry;
    return registry;
}

void
Registry::add(BenchDef def)
{
    if (def.name.empty() || def.fn == nullptr)
        throw std::logic_error("bench registration needs a name "
                               "and a body");
    for (const auto &existing : defs_)
        if (existing.name == def.name)
            throw std::logic_error("duplicate bench registration: " +
                                   def.name);
    defs_.push_back(std::move(def));
}

std::vector<const BenchDef *>
Registry::sorted() const
{
    std::vector<const BenchDef *> out;
    out.reserve(defs_.size());
    for (const auto &def : defs_)
        out.push_back(&def);
    std::sort(out.begin(), out.end(),
              [](const BenchDef *a, const BenchDef *b) {
                  return a->name < b->name;
              });
    return out;
}

const BenchDef *
Registry::find(std::string_view name) const
{
    for (const auto &def : defs_)
        if (def.name == name)
            return &def;
    return nullptr;
}

Registration::Registration(BenchDef def)
{
    Registry::global().add(std::move(def));
}

// ---------------------------------------------------------------
// Context.
// ---------------------------------------------------------------

Context::Context(bool echoText) : echo_(echoText) {}

void
Context::metric(const std::string &name, const std::string &unit,
                double value)
{
    for (const auto &s : samples_)
        if (s.name == name) {
            fail("metric '" + name + "' recorded twice");
            return;
        }
    samples_.push_back(Sample{name, unit, value});
}

void
Context::printf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string buf;
    if (needed > 0) {
        buf.resize(static_cast<std::size_t>(needed) + 1);
        std::vsnprintf(buf.data(), buf.size(), fmt, args);
        buf.resize(static_cast<std::size_t>(needed));
    }
    va_end(args);
    print(buf);
}

void
Context::print(const std::string &text)
{
    text_ += text;
    if (echo_) {
        std::fputs(text.c_str(), stdout);
        std::fflush(stdout);
    }
}

void
Context::fail(const std::string &why)
{
    if (!failed_) {
        failed_ = true;
        failure_ = why;
    }
}

// ---------------------------------------------------------------
// Results.
// ---------------------------------------------------------------

const Context::Sample *
BenchResult::find(std::string_view metric) const
{
    for (const auto &m : metrics)
        if (m.name == metric)
            return &m;
    return nullptr;
}

const BenchResult *
Report::find(std::string_view bench) const
{
    for (const auto &b : benches)
        if (b.name == bench)
            return &b;
    return nullptr;
}

// ---------------------------------------------------------------
// Run engine.
// ---------------------------------------------------------------

BenchResult
runBench(const BenchDef &def, const RunConfig &config)
{
    const auto now = config.clock ? config.clock : &hostSeconds;
    Context ctx(config.echoText);
    const double t0 = now();
    def.fn(ctx);
    ctx.metric("wall_s", "s", now() - t0);

    BenchResult result{def.name, ctx.failed(), ctx.failure(),
                       ctx.samples()};
    std::sort(result.metrics.begin(), result.metrics.end(),
              [](const Context::Sample &a, const Context::Sample &b) {
                  return a.name < b.name;
              });
    return result;
}

namespace
{

bool
matchesFilters(const std::string &name,
               const std::vector<std::string> &filters)
{
    if (filters.empty())
        return true;
    for (const auto &f : filters)
        if (name.find(f) != std::string::npos)
            return true;
    return false;
}

} // namespace

Report
runAll(const Registry &registry, const RunConfig &config)
{
    Report report;
    report.mode = quickMode() ? "quick" : "full";
    report.hardwareThreads =
        std::max(1u, std::thread::hardware_concurrency());

    const auto defs = registry.sorted();
    std::vector<const BenchDef *> picked;
    for (const auto *def : defs)
        if (matchesFilters(def->name, config.filters))
            picked.push_back(def);

    for (std::size_t i = 0; i < picked.size(); ++i) {
        if (config.progress)
            std::fprintf(stderr, "[%zu/%zu] %s\n", i + 1,
                         picked.size(), picked[i]->name.c_str());
        report.benches.push_back(runBench(*picked[i], config));
    }
    return report;
}

// ---------------------------------------------------------------
// Reporters.
// ---------------------------------------------------------------

namespace
{

/** Shortest %g representation that strtod round-trips exactly. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    for (int precision : {15, 16, 17}) {
        std::snprintf(buf, sizeof buf, "%.*g", precision, v);
        if (std::strtod(buf, nullptr) == v)
            return buf;
    }
    return buf;
}

/** Compact %.4g for human-facing tables. */
std::string
fmtShort(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4g", v);
    return buf;
}

} // namespace

std::string
reportTable(const Report &report)
{
    TextTable table({"Bench", "Metric", "Unit", "Value"});
    for (const auto &bench : report.benches) {
        for (const auto &metric : bench.metrics)
            table.addRow({bench.name, metric.name, metric.unit,
                          fmtShort(metric.value)});
        if (bench.failed)
            table.addRow({bench.name, "(FAILED)", bench.failure, ""});
    }
    return table.render();
}

std::string
reportCsv(const Report &report)
{
    std::string out = "bench,metric,unit,value\n";
    for (const auto &bench : report.benches)
        for (const auto &metric : bench.metrics)
            out += csvField(bench.name) + ',' +
                   csvField(metric.name) + ',' +
                   csvField(metric.unit) + ',' +
                   jsonNumber(metric.value) + '\n';
    return out;
}

std::string
reportJson(const Report &report)
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"schema\": \"netchar-bench/v2\",\n";
    out << "  \"mode\": \"" << jsonEscape(report.mode) << "\",\n";
    out << "  \"hardwareThreads\": " << report.hardwareThreads
        << ",\n";
    out << "  \"benches\": [";
    for (std::size_t b = 0; b < report.benches.size(); ++b) {
        const auto &bench = report.benches[b];
        out << (b == 0 ? "\n" : ",\n");
        out << "    {\n";
        out << "      \"name\": \"" << jsonEscape(bench.name)
            << "\",\n";
        out << "      \"failed\": "
            << (bench.failed ? "true" : "false") << ",\n";
        if (bench.failed)
            out << "      \"failure\": \""
                << jsonEscape(bench.failure) << "\",\n";
        out << "      \"metrics\": [";
        for (std::size_t m = 0; m < bench.metrics.size(); ++m) {
            const auto &metric = bench.metrics[m];
            out << (m == 0 ? "\n" : ",\n");
            out << "        {\"name\": \""
                << jsonEscape(metric.name) << "\", \"unit\": \""
                << jsonEscape(metric.unit) << "\", \"value\": "
                << jsonNumber(metric.value) << "}";
        }
        out << (bench.metrics.empty() ? "]" : "\n      ]") << "\n";
        out << "    }";
    }
    out << (report.benches.empty() ? "]" : "\n  ]") << "\n";
    out << "}\n";
    return out.str();
}

// ---------------------------------------------------------------
// Perf gates.
// ---------------------------------------------------------------

const std::vector<Gate> &
ciGates()
{
    static const std::vector<Gate> gates = {
        {"PAR-01", "parallel_scaling", "speedup_4j",
         GateKind::MinAbsolute, 2.5, 4,
         "the suite engine must keep near-linear fan-out at 4 jobs "
         "(skipped on hosts with < 4 hardware threads)"},
        {"OVH-01", "trace_overhead", "overhead_frac",
         GateKind::MaxAbsolute, 0.15,
         0, "trace capture must stay affordable enough to leave on "
            "(PR-2 budget)"},
        {"OVH-02", "chaos_overhead", "overhead_frac",
         GateKind::MaxAbsolute, 0.10, 0,
         "resilience machinery with injection disabled must stay "
         "invisible (PR-3 budget)"},
        {"LNT-01", "lint_overhead", "concurrency_ratio",
         GateKind::MaxAbsolute, 2.0, 0,
         "the CFG/lockset concurrency pass must stay within 2x of "
         "taint-only lint, or build-time race detection gets "
         "dropped from the default CI lint step"},
    };
    return gates;
}

std::string_view
verdictName(Verdict v)
{
    switch (v) {
    case Verdict::Pass: return "pass";
    case Verdict::Regress: return "REGRESS";
    case Verdict::MissingMetric: return "MISSING-METRIC";
    case Verdict::Skipped: return "skipped";
    }
    return "?";
}

namespace
{

std::string
gateCriterion(const Gate &gate)
{
    return gate.bench + "." + gate.metric +
           (gate.kind == GateKind::MinAbsolute ? " >= " : " <= ") +
           fmtShort(gate.threshold);
}

} // namespace

GateReport
checkGates(const Report &current, const std::vector<Gate> &gates,
           unsigned hardwareThreads)
{
    GateReport report;
    for (const auto &gate : gates) {
        GateOutcome outcome;
        outcome.gate = gate;
        if (hardwareThreads < gate.minHardwareThreads) {
            outcome.verdict = Verdict::Skipped;
            outcome.note = "host has " +
                           std::to_string(hardwareThreads) +
                           " hardware thread(s); gate needs " +
                           std::to_string(gate.minHardwareThreads);
            report.outcomes.push_back(std::move(outcome));
            continue;
        }

        const BenchResult *bench = current.find(gate.bench);
        const Context::Sample *metric =
            bench != nullptr ? bench->find(gate.metric) : nullptr;
        if (metric == nullptr) {
            outcome.verdict = Verdict::MissingMetric;
            outcome.note = bench == nullptr
                ? "bench absent from current run"
                : "metric absent from current run";
            report.pass = false;
            report.outcomes.push_back(std::move(outcome));
            continue;
        }
        outcome.current = metric->value;
        if (bench->failed) {
            outcome.verdict = Verdict::Regress;
            outcome.note = "bench failed: " + bench->failure;
            report.pass = false;
            report.outcomes.push_back(std::move(outcome));
            continue;
        }

        const bool ok = gate.kind == GateKind::MinAbsolute
            ? outcome.current >= gate.threshold
            : outcome.current <= gate.threshold;
        outcome.verdict = ok ? Verdict::Pass : Verdict::Regress;
        if (!ok)
            report.pass = false;
        report.outcomes.push_back(std::move(outcome));
    }
    return report;
}

std::string
gateTable(const GateReport &report)
{
    // Markdown pipes: readable in a terminal, renders as a table
    // when CI drops it into the job summary.
    std::string out = "| Gate | Criterion | Current | Verdict |\n"
                      "|---|---|---|---|\n";
    for (const auto &o : report.outcomes) {
        const bool measured = o.verdict == Verdict::Pass ||
                              o.verdict == Verdict::Regress;
        out += "| " + o.gate.id + " | " + gateCriterion(o.gate) +
               " | " + (measured ? fmtShort(o.current) : "-") +
               " | " + std::string(verdictName(o.verdict));
        if (!o.note.empty())
            out += " (" + o.note + ")";
        out += " |\n";
    }
    return out;
}

void
injectRegression(Report &report, const std::vector<Gate> &gates)
{
    for (const auto &gate : gates) {
        for (auto &bench : report.benches) {
            if (bench.name != gate.bench)
                continue;
            for (auto &metric : bench.metrics) {
                if (metric.name != gate.metric)
                    continue;
                // Scaling cannot push a near-zero metric (e.g. an
                // overhead fraction of ~0) past an absolute bound,
                // so plant a value that violates it outright.
                metric.value = gate.kind == GateKind::MinAbsolute
                    ? 0.5 * gate.threshold
                    : 2.0 * gate.threshold;
            }
        }
    }
}

// ---------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------

namespace
{

bool
writeFile(const std::string &path, const std::string &content)
{
    if (path == "-") {
        std::fputs(content.c_str(), stdout);
        return true;
    }
    std::ofstream out(path, std::ios::binary);
    out << content;
    return static_cast<bool>(out);
}

void
driverUsage(std::FILE *to)
{
    std::fputs(
        "usage: netchar_bench [options]\n"
        "\n"
        "Run the registered bench suite once and report one\n"
        "value per metric.\n"
        "\n"
        "  --list               list registered benches and exit\n"
        "  --list-gates         list CI perf gates and exit\n"
        "  --filter SUBSTR      run benches whose name contains\n"
        "                       SUBSTR (repeatable)\n"
        "  --quick | --full     force quick/full mode (otherwise\n"
        "                       the NETCHAR_QUICK environment rules)\n"
        "  --table              print the metric table (default\n"
        "                       when no other output is selected)\n"
        "  --csv FILE           write CSV results ('-' = stdout)\n"
        "  --json FILE          write JSON results ('-' = stdout)\n"
        "  --ci-check           run the gated benches, print the\n"
        "                       gate table; exit 1 on regression\n"
        "  --self-test-regress  with --ci-check: inject a synthetic\n"
        "                       regression to prove the gates trip\n"
        "  --echo               stream figure text to stdout\n"
        "  --no-progress        suppress stderr progress lines\n"
        "\n"
        "exit codes: 0 success; 1 bench failure or gate\n"
        "regression; 2 usage or I/O error\n",
        to);
}

int
setQuickEnv(bool quick)
{
    // One-shot mode override for this process and the benches it
    // runs; quickMode() keeps reading the environment so there is
    // exactly one quick/full policy.
    return setenv("NETCHAR_QUICK", quick ? "1" : "0", 1);
}

} // namespace

int
driverMain(int argc, char **argv)
{
    bool list = false, listGates = false, table = false;
    bool ciCheck = false, selfTestRegress = false;
    std::string csvPath, jsonPath;
    RunConfig config;
    config.echoText = false;

    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            driverUsage(stdout);
            return 0;
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--list-gates") {
            listGates = true;
        } else if (arg == "--table") {
            table = true;
        } else if (arg == "--echo") {
            config.echoText = true;
        } else if (arg == "--no-progress") {
            config.progress = false;
        } else if (arg == "--quick") {
            setQuickEnv(true);
        } else if (arg == "--full") {
            setQuickEnv(false);
        } else if (arg == "--self-test-regress") {
            selfTestRegress = true;
        } else if (arg == "--ci-check") {
            ciCheck = true;
        } else if (arg == "--filter") {
            const char *v = value("--filter");
            if (v == nullptr)
                return 2;
            config.filters.push_back(v);
        } else if (arg == "--csv") {
            const char *v = value("--csv");
            if (v == nullptr)
                return 2;
            csvPath = v;
        } else if (arg == "--json") {
            const char *v = value("--json");
            if (v == nullptr)
                return 2;
            jsonPath = v;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
            driverUsage(stderr);
            return 2;
        }
    }

    if (selfTestRegress && !ciCheck) {
        std::fprintf(stderr,
                     "--self-test-regress needs --ci-check\n");
        return 2;
    }

    const Registry &registry = Registry::global();
    if (list) {
        for (const auto *def : registry.sorted())
            std::printf("%s\t%s\n", def->name.c_str(),
                        def->description.c_str());
        return 0;
    }
    if (listGates) {
        for (const auto &gate : ciGates())
            std::printf("%s\t%s\t%s\n", gate.id.c_str(),
                        gateCriterion(gate).c_str(),
                        gate.rationale.c_str());
        return 0;
    }

    if (ciCheck) {
        // --ci-check runs exactly the gated benches; an explicit
        // --filter would silently hollow out the gate.
        if (!config.filters.empty()) {
            std::fprintf(stderr,
                         "the gated benches define the run set; "
                         "--filter is ignored\n");
            config.filters.clear();
        }
        for (const auto &gate : ciGates())
            config.filters.push_back(gate.bench);
        std::sort(config.filters.begin(), config.filters.end());
        config.filters.erase(std::unique(config.filters.begin(),
                                         config.filters.end()),
                             config.filters.end());
    }

    Report current = runAll(registry, config);

    if (!jsonPath.empty() &&
        !writeFile(jsonPath, reportJson(current))) {
        std::fprintf(stderr, "cannot write '%s'\n",
                     jsonPath.c_str());
        return 2;
    }
    if (!csvPath.empty() &&
        !writeFile(csvPath, reportCsv(current))) {
        std::fprintf(stderr, "cannot write '%s'\n",
                     csvPath.c_str());
        return 2;
    }
    if (table || (!ciCheck && csvPath.empty() && jsonPath.empty()))
        std::printf("%s", reportTable(current).c_str());

    int exitCode = 0;
    for (const auto &bench : current.benches) {
        if (bench.failed) {
            std::fprintf(stderr, "FAIL: %s: %s\n",
                         bench.name.c_str(),
                         bench.failure.c_str());
            exitCode = 1;
        }
    }

    if (ciCheck) {
        if (selfTestRegress)
            injectRegression(current, ciGates());
        const GateReport gates =
            checkGates(current, ciGates(), current.hardwareThreads);
        std::printf("%s", gateTable(gates).c_str());
        std::printf("PERF GATE: %s\n",
                    gates.pass ? "PASS" : "FAIL");
        if (!gates.pass)
            exitCode = 1;
    }
    return exitCode;
}

} // namespace netchar::bench
