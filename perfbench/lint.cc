/**
 * @file
 * lint-cold: netchar-lint over the seeded corpus (corpus.hh), cold —
 * default DriverOptions, so no analysis cache and one job. One
 * operation is one runLint call plus the JSON rendering a user reads;
 * all of it runs on the calling thread, whose CPU clock times it.
 *
 * The traced run replays runLint from its public parts
 * (discoverFiles, analyzeFileUnit per file, assembleUnits) and
 * renderJson, and must reproduce the untraced report byte for byte.
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include "corpus.hh"
#include "lint/driver.hh"
#include "stats/hash.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace netchar;

namespace
{

constexpr const char *kCorpusRoot = "lint-corpus";

CorpusShape
corpusShape(const RunArgs &args)
{
    CorpusShape shape;
    if (args.quick)
        shape.files = 12;
    return shape;
}

/** One cold lint as a user runs it; returns the JSON report. */
std::string
lintOnce(Outcome &out)
{
    std::vector<std::string> errors;
    const lint::LintResult result =
        lint::runLint({kCorpusRoot}, errors, lint::DriverOptions{});
    for (const std::string &e : errors)
        out.fail("lint: " + e);
    return lint::renderJson(result);
}

/** runLint rebuilt from its public parts, one span per phase. */
std::string
replayLint(Tracer &tracer, std::uint64_t op, lint::LintResult &result)
{
    Scoped root(&tracer, "bench.lint", op);
    std::vector<std::string> errors, files;
    {
        Scoped s(&tracer, "lint.discover", op);
        files = lint::discoverFiles({kCorpusRoot}, errors);
    }
    std::vector<lint::SourceBuffer> sources;
    {
        Scoped s(&tracer, "lint.read", op);
        for (const std::string &file : files) {
            std::ifstream in(file, std::ios::binary);
            std::ostringstream buf;
            buf << in.rdbuf();
            sources.push_back({file, buf.str()});
        }
    }
    std::vector<lint::FileUnit> units;
    for (const lint::SourceBuffer &src : sources) {
        Scoped s(&tracer, "lint.analyze", op);
        units.push_back(lint::analyzeFileUnit(src.path, src.content));
    }
    {
        Scoped s(&tracer, "lint.assemble", op);
        result = lint::assembleUnits(std::move(units), lint::LintOptions{});
    }
    Scoped s(&tracer, "lint.render", op);
    return lint::renderJson(result);
}

} // namespace

Outcome
runLintCold(const RunArgs &args)
{
    Outcome out;
    const std::vector<CorpusFile> corpus =
        generateCorpus(args.seed, corpusShape(args));

    // Set-up: write the corpus and run the discarded first lint. All
    // of it runs on this thread, so its CPU clock times it.
    SetupCost setup;
    std::string reference;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        const double t0 = threadCpuSeconds();
        writeCorpus(corpus, kCorpusRoot);
        const std::string report = lintOnce(out);
        setup.add(threadCpuSeconds() - t0);
        if (!reference.empty() && report != reference)
            out.fail("the lint report changed between set-ups");
        reference = report;
    }

    std::vector<double> lintSeconds;
    const double start = steadySeconds();
    if (!args.trace) {
        HostSpeed speed;
        std::vector<double> lintCpu;
        while (steadySeconds() - start < args.seconds ||
               lintCpu.size() < kMinOps) {
            const double t0 = steadySeconds();
            const double c0 = threadCpuSeconds();
            const std::string report = lintOnce(out);
            lintCpu.push_back(threadCpuSeconds() - c0);
            lintSeconds.push_back(steadySeconds() - t0);
            speed.addWork(lintCpu.back());
            ++out.attempted;
            if (report != reference)
                out.fail("a repeated lint changed its report");
        }
        medianOp(out, lintSeconds, "lint wall time");
        setCostMetrics(out, medianOp(out, lintCpu, "lint CPU time"), speed,
                       setup);
        checkDigest(out, "lint-cold", args, contentHashHex(reference));
        return out;
    }

    // Traced: untraced and traced lints alternate, so host drift
    // lands on both sides of the overhead figure.
    Tracer tracer;
    std::vector<double> tracedSeconds;
    lint::LintResult result;
    for (std::uint64_t op = 0;
         steadySeconds() - start < args.seconds || op == 0; ++op) {
        double t0 = steadySeconds();
        lintOnce(out);
        lintSeconds.push_back(steadySeconds() - t0);
        t0 = steadySeconds();
        const std::string report = replayLint(tracer, op, result);
        tracedSeconds.push_back(steadySeconds() - t0);
        out.attempted += 2;
        if (report != reference)
            out.fail("traced replay report differs from runLint's");
    }
    const double lints = static_cast<double>(tracedSeconds.size());
    for (const auto &[name, self] : selfTimeByName(tracer.spans())) {
        if (name.rfind("lint.", 0) == 0)
            out.set(name + "_ms", "ms", 1e3 * self / lints);
    }
    out.set("lint.files", "count", static_cast<double>(result.filesScanned));
    out.set("lint.call_sites", "count",
            static_cast<double>(result.callSites));
    out.set("lint.findings", "count",
            static_cast<double>(result.findings.size()));
    out.set("bench.unattributed_frac", "frac",
            unattributedFraction(tracer.spans()));
    out.set("bench.trace_overhead_frac", "frac",
            median(tracedSeconds) / median(lintSeconds) - 1.0);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%zu files, %zu findings; lint p50 %.4f s untraced, "
                  "%.4f s traced",
                  result.filesScanned, result.findings.size(),
                  median(lintSeconds), median(tracedSeconds));
    out.note(line);
    out.spans = tracer.spans();
    return out;
}

} // namespace perfbench
