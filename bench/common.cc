#include "common.hh"

#include <stdexcept>

#include "stats/hostclock.hh"
#include "stats/summary.hh"
#include "workloads/registry.hh"

namespace netchar::bench
{

namespace
{

std::vector<wl::WorkloadProfile>
byNames(const std::vector<const char *> &picks)
{
    std::vector<wl::WorkloadProfile> out;
    out.reserve(picks.size());
    for (const char *name : picks) {
        auto p = wl::findProfile(name);
        if (!p)
            throw std::logic_error(std::string("missing profile: ") +
                                   name);
        out.push_back(std::move(*p));
    }
    return out;
}

/**
 * The one sweep rule of every artifact bench: each profile measured
 * for its quick-mode-scaled length unless the options set one, every
 * hardware thread, one attempt per run, and a throw naming the first
 * failed run. `sweep(profiles, par, stats)` is runAll or captureAll.
 */
template <typename SweepFn>
auto
sweepOnce(const Characterizer &ch,
          const std::vector<wl::WorkloadProfile> &profiles,
          SweepFn &&sweep)
{
    std::vector<wl::WorkloadProfile> scaled = profiles;
    for (auto &p : scaled)
        p.instructions = scaledInstructions(p.instructions);
    // One attempt: a retry would run at a perturbed seed and change
    // the figure without a word.
    Parallelism par;
    par.jobs = 0;
    par.maxAttempts = 1;
    SuiteRunStats stats;
    auto out = sweep(scaled, par, &stats);
    for (const auto &r : stats.runs)
        if (!r.succeeded)
            throw std::runtime_error(r.benchmark + " on " +
                                     ch.config().name + ": " + r.error);
    return out;
}

} // namespace

std::vector<wl::WorkloadProfile>
tableIvDotnet()
{
    return byNames({"System.Runtime", "System.Threading",
                    "System.ComponentModel", "System.Linq",
                    "System.Net", "System.MathBenchmarks",
                    "System.Diagnostics", "CscBench"});
}

std::vector<wl::WorkloadProfile>
tableIvAspnet()
{
    return byNames({"DbFortunesRaw", "MvcDbFortunesRaw",
                    "MvcDbMultiUpdateRaw", "Plaintext", "Json",
                    "CopyToAsync", "MvcJsonNetOutput2M",
                    "MvcJsonNetInput2M"});
}

std::vector<wl::WorkloadProfile>
tableIvSpec()
{
    return byNames({"mcf", "cactuBSSN", "wrf", "gcc", "omnetpp",
                    "perlbench", "xalancbmk", "bwaves"});
}

RunOptions
standardOptions()
{
    RunOptions o;
    o.warmupInstructions = scaledInstructions(600'000);
    return o;
}

std::vector<RunResult>
runSuite(const Characterizer &ch,
         const std::vector<wl::WorkloadProfile> &profiles,
         const RunOptions &options)
{
    return sweepOnce(ch, profiles, [&](const auto &ps, auto par, auto st) {
        return ch.runAll(ps, options, par, st);
    });
}

std::vector<CaptureResult>
captureSuite(const Characterizer &ch,
             const std::vector<wl::WorkloadProfile> &profiles,
             const RunOptions &options, const TraceOptions &topts)
{
    return sweepOnce(ch, profiles, [&](const auto &ps, auto par, auto st) {
        return ch.captureAll(ps, options, topts, par, st);
    });
}

std::vector<std::string>
names(const std::vector<wl::WorkloadProfile> &profiles)
{
    std::vector<std::string> out;
    out.reserve(profiles.size());
    for (const auto &p : profiles)
        out.push_back(p.name);
    return out;
}

std::vector<double>
barValues(const std::vector<Bar> &bars)
{
    std::vector<double> out;
    out.reserve(bars.size());
    for (const auto &bar : bars)
        out.push_back(bar.value);
    return out;
}

std::pair<double, double>
pairedSeconds(std::size_t n, const std::function<void(std::size_t)> &base,
              const std::function<void(std::size_t)> &treated)
{
    double seconds[2] = {0.0, 0.0}; // base, treated
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t turn = 0; turn < 2; ++turn) {
            const std::size_t side = (i + turn) % 2;
            const double t0 = hostSeconds();
            (side == 0 ? base : treated)(i);
            seconds[side] += hostSeconds() - t0;
        }
    return {seconds[0], seconds[1]};
}

double
geomeanFloored(const std::vector<double> &xs, double floor)
{
    std::vector<double> clamped;
    clamped.reserve(xs.size());
    for (double x : xs)
        clamped.push_back(x < floor ? floor : x);
    return stats::geomean(clamped);
}

} // namespace netchar::bench
