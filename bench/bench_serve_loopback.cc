/**
 * @file
 * Serving throughput over a loopback socket. No gate reads it:
 * perfbench's serve-hit workload judges the hit path end to end, and
 * the admission-overhead fraction varies more from run to run than
 * any useful bound.
 *
 * One daemon, one client, TCP on 127.0.0.1: after warming the
 * content-addressed cache with a single run request, the bench
 * measures (a) ping round-trips per second — the floor cost of the
 * NDJSON protocol and the poll loop — and (b) cache-hit run
 * round-trips per second, the "repeat queries are free" promise that
 * characterization-as-a-service rests on. A cache hit must cost a
 * hash plus a socket round-trip, never a simulation; if hit
 * throughput collapses toward miss latency, the serving layer has
 * broken its contract.
 *
 * The measurement runs twice: once with every admission-control
 * budget disabled and once with the shipped defaults (bounded
 * per-round request/byte budgets, line-size cap, idle timer). The
 * uncontended single-client path never trips a budget, so the gap
 * between the two is pure bookkeeping overhead —
 * `admission_overhead_frac`.
 * The headline ping/hit metrics come from the defaults run: that is
 * the configuration users get.
 */

#include "common.hh"
#include "core/executor.hh"
#include "serve/client.hh"
#include "serve/server.hh"

using namespace netchar;

namespace
{

struct LoopbackRates
{
    double pingRps = -1.0;
    double hitRps = -1.0;
    double missMs = -1.0;
    std::string failure;
};

/** One daemon/client session: warm the cache with a single real
 *  run, then time ping and cache-hit round-trips. */
LoopbackRates
measureLoopback(serve::ServerOptions sopts, int pings, int hits)
{
    LoopbackRates rates;
    sopts.listen = "127.0.0.1:0";
    sopts.jobs = 1;
    serve::Server server(sopts);
    std::string error;
    if (!server.start(error)) {
        rates.failure = "cannot start daemon: " + error;
        return rates;
    }

    const std::string ping_line = R"({"verb":"ping"})";
    const std::string run_line =
        R"({"verb":"run","benchmark":"SeekUnroll",)"
        R"("options":{"warmup":20000,"measure":40000}})";

    // Task 0 is the daemon's event loop; task 1 is the client. The
    // Executor is the sanctioned way to run them concurrently.
    Executor executor(2);
    executor.forEach(2, [&](std::size_t task) {
        if (task == 0) {
            server.serve();
            return;
        }
        serve::ClientOptions copts;
        copts.address = server.address();
        copts.maxAttempts = 20;
        copts.backoffBaseMicros = 1000;
        serve::Client client(copts);
        std::string response, err;

        // Cache warm-up: the one real simulation this bench pays.
        double t0 = bench::nowSeconds();
        if (!client.request(run_line, response, err))
            rates.failure = "warm-up run: " + err;
        rates.missMs = 1e3 * (bench::nowSeconds() - t0);

        if (rates.failure.empty()) {
            t0 = bench::nowSeconds();
            for (int i = 0; i < pings && rates.failure.empty(); ++i)
                if (!client.request(ping_line, response, err))
                    rates.failure = "ping: " + err;
            rates.pingRps = pings / (bench::nowSeconds() - t0);
        }
        if (rates.failure.empty()) {
            t0 = bench::nowSeconds();
            for (int i = 0; i < hits && rates.failure.empty(); ++i)
                if (!client.request(run_line, response, err))
                    rates.failure = "cached run: " + err;
            rates.hitRps = hits / (bench::nowSeconds() - t0);
        }
        client.request(R"({"verb":"shutdown"})", response, err);
    });
    return rates;
}

} // namespace

NETCHAR_BENCH_REPEATS(serve_loopback,
                      "Loopback serving throughput: ping and "
                      "cache-hit round-trips per second, plus the "
                      "admission-control overhead fraction",
                      3, 2, 1)
{
    const int pings = bench::quickMode() ? 2000 : 10000;
    const int hits = bench::quickMode() ? 1000 : 5000;

    // Unbounded first: every budget off, the pre-admission fast
    // path. Then the shipped defaults, back to back so host noise
    // lands on both sides equally.
    serve::ServerOptions unbounded;
    unbounded.maxBatchRequests = 0;
    unbounded.maxBatchBytes = 0;
    unbounded.maxLineBytes = 0;
    unbounded.idleTimeoutMs = 0;
    const LoopbackRates open =
        measureLoopback(unbounded, pings, hits);
    const LoopbackRates guarded =
        measureLoopback(serve::ServerOptions{}, pings, hits);

    if (!open.failure.empty() || !guarded.failure.empty()) {
        ctx.printf("serve_loopback FAILED: %s%s\n",
                   open.failure.c_str(), guarded.failure.c_str());
        ctx.metric("ping_rps", "req/s", -1.0, true);
        ctx.metric("hit_rps", "req/s", -1.0, true);
        return;
    }

    const double overhead =
        open.hitRps > 0.0 ? 1.0 - guarded.hitRps / open.hitRps
                          : 0.0;
    ctx.metric("ping_rps", "req/s", guarded.pingRps, true);
    ctx.metric("hit_rps", "req/s", guarded.hitRps, true);
    ctx.metric("miss_ms", "ms", guarded.missMs, false);
    // Negative values just mean the gap is below measurement noise.
    ctx.metric("admission_overhead_frac", "frac", overhead, false);
    ctx.printf("loopback serving: %.0f ping/s, %.0f cache-hit "
               "run/s (first miss %.2f ms); unbounded %.0f hit/s "
               "-> admission overhead %+.1f%%\n",
               guarded.pingRps, guarded.hitRps, guarded.missMs,
               open.hitRps, 100.0 * overhead);
}
