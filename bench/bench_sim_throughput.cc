/**
 * @file
 * Microbenchmarks of the simulator itself: instructions simulated
 * per second for representative workload classes, plus the cost of
 * the analysis kernels (PCA, clustering). These guard against
 * performance regressions in the hot paths every figure reproduction
 * depends on. The harness registration (`sim_throughput`) feeds
 * the SIM-01..03 and ANA-01/02 CI gates through netchar_bench.
 */

#include "harness.hh"

#include "core/subset.hh"
#include "sim/machine.hh"
#include "stats/rng.hh"
#include "workloads/registry.hh"
#include "workloads/synth.hh"

using namespace netchar;

namespace
{

/** Steady-state instructions per second for one workload profile. */
double
simulatedMinstrPerSecond(const char *name, std::uint64_t budget)
{
    auto profile = *wl::findProfile(name);
    sim::Machine machine(sim::MachineConfig::intelCoreI99980Xe());
    wl::SynthWorkload workload(profile, 1);
    // Warm structures so steady-state throughput is measured.
    workload.run(machine.core(0), 200'000);
    const double t0 = bench::nowSeconds();
    std::uint64_t done = 0;
    while (done < budget) {
        workload.run(machine.core(0), 100'000);
        done += 100'000;
    }
    const double dt = bench::nowSeconds() - t0;
    return dt > 0.0
        ? static_cast<double>(done) / dt / 1e6
        : 0.0;
}

double
pcaMillis(std::size_t n)
{
    stats::Rng rng(7);
    stats::Matrix data(n, kNumMetrics);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < kNumMetrics; ++c)
            data(r, c) = rng.uniform(0.0, 10.0);
    const double t0 = bench::nowSeconds();
    auto pca =
        stats::runPca(data, {.components = 4, .standardize = true});
    const double ms = 1e3 * (bench::nowSeconds() - t0);
    // Fold a result into the return so the work cannot be elided.
    return pca.scores(0, 0) != pca.scores(0, 0) ? -1.0 : ms;
}

double
clusterMillis(std::size_t n)
{
    stats::Rng rng(9);
    stats::Matrix scores(n, 4);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            scores(r, c) = rng.uniform(-3.0, 3.0);
    const double t0 = bench::nowSeconds();
    auto dg = stats::hierarchicalCluster(scores);
    const double ms = 1e3 * (bench::nowSeconds() - t0);
    return dg.nodes.empty() ? -1.0 : ms;
}

} // namespace

NETCHAR_BENCH_REPEATS(sim_throughput,
                      "Simulator and analysis-kernel throughput: "
                      "Minstr/s per workload class, PCA and "
                      "clustering latency (feeds SIM/ANA gates)",
                      5, 3, 1)
{
    const std::uint64_t budget = bench::scaledInstructions(2'000'000);
    const double dotnet =
        simulatedMinstrPerSecond("System.Runtime", budget);
    const double aspnet =
        simulatedMinstrPerSecond("Plaintext", budget);
    const double spec = simulatedMinstrPerSecond("mcf", budget);
    ctx.metric("dotnet_minstr_per_s", "Minstr/s", dotnet, true);
    ctx.metric("aspnet_minstr_per_s", "Minstr/s", aspnet, true);
    ctx.metric("spec_minstr_per_s", "Minstr/s", spec, true);

    const std::size_t pca_rows = bench::quickMode() ? 256 : 512;
    const std::size_t cluster_rows = bench::quickMode() ? 512 : 2906;
    ctx.metric("pca_ms", "ms", pcaMillis(pca_rows), false);
    ctx.metric("cluster_ms", "ms", clusterMillis(cluster_rows),
               false);
    ctx.printf("sim throughput: dotnet %.2f, aspnet %.2f, spec %.2f "
               "Minstr/s\n",
               dotnet, aspnet, spec);
}
NETCHAR_BENCH_MAIN(sim_throughput)
