/**
 * @file
 * Serve workloads: a `netchar serve` daemon (serve::Server) answering
 * `run` requests for 64 warm run keys, drawn zipf, with field order
 * and explicit-vs-omitted defaults randomised.
 *
 *  - serve-hit: every measured request hits, so only the hit path
 *    runs.
 *  - serve-mix: a persistent cache, and fresh-seed ASP.NET runs at 2
 *    cores among the hits, which the daemon computes, inserts and
 *    journals.
 *
 * The untraced run starts the daemon in-process and feeds it batches
 * through Server::handleBatch — what serve() runs for each poll round
 * — back to back on one thread with 1 job, so that thread's CPU clock
 * covers all of the daemon's work and the host-speed reference runs
 * beside it. serve-hit's batches are 16 hits; serve-mix's are one miss
 * of each of 6 ASP.NET profiles ahead of 42 hits (12.5% misses), so
 * every batch computes the same mix. The socket and poll loop are left
 * out: their cost on a shared host follows other tenants' wake-ups
 * more than this program.
 *
 * The traced run serves over a Unix socket instead (serve-mix with 2
 * jobs): an open loop on two connections (latency from each request's
 * due time, for the wall-clock per-layer numbers: hit and miss
 * percentiles, head-of-line blocking, generator lag), then an
 * in-process replay of the same request lines through parseRequest →
 * findProfile → cacheKeyText → contentHashHex → ResultCache →
 * okCachedResponse (and, for misses, the compute, render, insert and
 * journal steps) with a span around each; the replay must reproduce
 * the daemon's response lines exactly.
 *
 * Every response is checked: a hit must equal its key's first body
 * byte for byte; a miss must carry the content key the bench derives
 * from the public canonical-key functions, and sampled bodies are
 * recomputed in-process.
 */

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/canonical.hh"
#include "core/executor.hh"
#include "core/export.hh"
#include "replay.hh"
#include "serve/cache.hh"
#include "serve/journal.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "stats/hash.hh"
#include "workloads.hh"
#include "workloads/registry.hh"

namespace perfbench
{

using namespace netchar;

namespace
{

constexpr std::size_t kWarmKeys = 64;
/** Connections of the traced run's open loop. */
constexpr std::size_t kConnections = 2;
/**
 * serve-mix's open loop: every kMissEvery-th tick sends a miss on
 * each connection (12.5% of requests). The pair lands in one poll
 * round, so the daemon computes it as one 2-job batch; at 100 req/s
 * the pairs come every 160 ms and a pair takes ~65 ms on the
 * reference host, so miss latency is compute time rather than
 * queueing.
 */
constexpr std::size_t kMissEvery = 8;
/** serve-mix misses take these ASP.NET profiles in turn, so every
 *  seed computes the same mix. */
constexpr const char *kMissProfiles[] = {
    "Plaintext", "Json", "MvcJson", "DbFortunesEf", "GrpcUnary",
    "SignalREcho",
};
constexpr std::size_t kMissKinds = std::size(kMissProfiles);
/** Bodies recomputed in-process per run (one characterization each). */
constexpr std::size_t kVerifiedBodies = 8;
/** Requests the traced run replays in-process (twice for hits). */
constexpr std::size_t kReplayedHits = 4000;
constexpr std::size_t kReplayedMisses = 12;
constexpr std::size_t kPings = 2000;

struct ServeSpec
{
    /** The traced run's daemon jobs. */
    unsigned jobs;
    /** Open-loop arrival rate, requests per second (all connections). */
    double rate;
    /** Requests pipelined per open-loop operation. */
    std::size_t burst;
    /** Fresh-seed misses mixed into the traffic. */
    bool mix;
    /** The untraced run's batches: this many misses, then hits. */
    std::size_t batchMisses, batchHits;
};

/** One distinct run request: what it computes and its cache key. */
struct RunKey
{
    wl::WorkloadProfile profile;
    RunOptions options;
    std::string key;
};

/** One request and the key its response must carry. */
struct Request
{
    /** Index into the warm keys (hit) or the fresh keys (miss). */
    std::size_t key = 0;
    bool miss = false;
    /** Where its line sits in the burst's payload. */
    std::size_t begin = 0, size = 0;
};

/** Requests sent together — one socket write or one handleBatch
 *  call — and answered in order. */
struct Burst
{
    std::vector<Request> requests;
    /** The request lines, newline-terminated, ready to send. */
    std::string payload;

    std::string
    line(const Request &r) const
    {
        return payload.substr(r.begin, r.size);
    }
};

/** A miss the daemon answered, kept for checks and the replay. */
struct SeenMiss
{
    std::size_t key = 0;
    std::string line, response;
};

const sim::MachineConfig &
machineConfig()
{
    static const sim::MachineConfig config =
        sim::MachineConfig::intelCoreI99980Xe();
    return config;
}

RunKey
makeKey(const std::string &benchmark, const RunOptions &options)
{
    const auto profile = wl::findProfile(benchmark);
    if (!profile)
        throw std::runtime_error("no profile " + benchmark);
    return {*profile, options,
            contentHashHex("run/" +
                           cacheKeyText(*profile, machineConfig(), options))};
}

RunOptions
smallRun(std::uint64_t seed, unsigned cores)
{
    RunOptions o;
    o.warmupInstructions = 20'000;
    o.measuredInstructions = 40'000;
    o.seed = seed;
    o.cores = cores;
    return o;
}

template <typename T>
void
shuffle(std::vector<T> &v, SeededRng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

std::string
joined(const std::vector<std::string> &parts)
{
    std::string out = "{";
    for (std::size_t i = 0; i < parts.size(); ++i)
        out += (i ? "," : "") + parts[i];
    return out + "}";
}

/**
 * A `run` request line for `k`, with its JSON members in a seeded
 * order and each option that equals its default either spelled out
 * or omitted — all spellings name the same cache key.
 */
std::string
renderRun(const RunKey &k, SeededRng &rng)
{
    const RunOptions &o = k.options;
    std::vector<std::string> opts = {
        "\"warmup\":" + std::to_string(o.warmupInstructions),
        "\"measure\":" + std::to_string(o.measuredInstructions),
        "\"seed\":" + std::to_string(o.seed),
    };
    if (o.cores != 1 || rng.below(2))
        opts.push_back("\"cores\":" + std::to_string(o.cores));
    if (rng.below(2))
        opts.push_back("\"jitHint\":false");
    if (rng.below(2))
        opts.push_back("\"quantum\":" + std::to_string(o.quantum));
    if (rng.below(2))
        opts.push_back("\"allocScale\":1");
    shuffle(opts, rng);
    std::vector<std::string> top = {
        "\"verb\":\"run\"",
        "\"benchmark\":" + serve::jsonString(k.profile.name),
        "\"options\":" + joined(opts),
    };
    if (rng.below(2))
        top.push_back("\"machine\":\"i9\"");
    if (rng.below(2))
        top.push_back("\"deadlineMs\":0");
    shuffle(top, rng);
    return joined(top);
}

/**
 * Everything a serve run sends, generated from the seed: the warm
 * keys up front, bursts in the order they are asked for. Not shared
 * between threads while it grows.
 */
class Traffic
{
  public:
    explicit Traffic(const RunArgs &args)
        : seed_(args.seed), rng_(args.seed * 0x9E3779B97F4A7C15ULL + 17)
    {
        // Warm keys: small .NET category runs with distinct seeds,
        // taking the categories in turn so every seed warms the same
        // mix.
        const auto dotnet = wl::suiteProfiles(wl::Suite::DotNet);
        const std::size_t first = rng_.below(dotnet.size());
        for (std::size_t j = 0; j < kWarmKeys; ++j) {
            warm.push_back(makeKey(dotnet[(first + j) % dotnet.size()].name,
                                   smallRun(seed_ * 1000 + j, 1)));
            warmLines.push_back(renderRun(warm.back(), rng_));
        }
    }

    /** `misses` fresh-key misses, then `hits` zipf-drawn warm hits. */
    Burst
    burst(std::size_t misses, std::size_t hits)
    {
        Burst b;
        for (std::size_t i = 0; i < misses + hits; ++i) {
            Request r;
            r.miss = i < misses;
            std::string line;
            if (r.miss) {
                r.key = fresh.size();
                fresh.push_back(
                    makeKey(kMissProfiles[r.key % kMissKinds],
                            smallRun(seed_ * 1'000'000 + 500'000 + r.key, 2)));
                line = renderRun(fresh.back(), rng_);
            } else {
                r.key = rng_.zipf(kWarmKeys);
                line = renderRun(warm[r.key], rng_);
            }
            r.begin = b.payload.size();
            r.size = line.size();
            b.payload += line + "\n";
            b.requests.push_back(r);
        }
        return b;
    }

    /**
     * The traced run's open loop: one burst per connection per tick,
     * all due at the tick, ticks evenly spaced at the arrival rate
     * over `args.seconds`. The timed ops (bursts of hits, or
     * serve-mix's misses) number at least kMinOps.
     */
    void
    planOpenLoop(const ServeSpec &spec, const RunArgs &args)
    {
        const double tickSeconds =
            static_cast<double>(kConnections * spec.burst) / spec.rate;
        const std::size_t minTicks = (kMinOps + kConnections - 1) /
                                     kConnections *
                                     (spec.mix ? kMissEvery : 1);
        const std::size_t ticks = std::max(
            minTicks, static_cast<std::size_t>(args.seconds / tickSeconds));
        const std::size_t missPhase = rng_.below(kMissEvery);
        open.resize(kConnections);
        due.resize(kConnections);
        for (std::size_t tick = 0; tick < ticks; ++tick) {
            const bool miss = spec.mix && tick % kMissEvery == missPhase;
            for (std::size_t c = 0; c < kConnections; ++c) {
                open[c].push_back(burst(miss ? spec.burst : 0,
                                        miss ? 0 : spec.burst));
                due[c].push_back(static_cast<double>(tick) * tickSeconds);
            }
        }
    }

    std::vector<RunKey> warm;
    std::vector<std::string> warmLines;
    std::vector<RunKey> fresh;
    /** Per connection: the open loop's bursts and their due times,
     *  seconds from its start. */
    std::vector<std::vector<Burst>> open;
    std::vector<std::vector<double>> due;

  private:
    std::uint64_t seed_;
    SeededRng rng_;
};

/**
 * One NDJSON connection that pipelines: a burst of request lines
 * goes out in one write and the replies are read back in order.
 * (serve::Client keeps one request in flight.)
 */
class Connection
{
  public:
    /** Connect to the daemon's Unix socket; throws on failure. */
    explicit Connection(const std::string &path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0 ||
            ::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            const std::string why = std::strerror(errno);
            if (fd_ >= 0)
                ::close(fd_);
            throw std::runtime_error("connect " + path + ": " + why);
        }
        // A wedged daemon fails the run instead of hanging it.
        timeval tv{};
        tv.tv_sec = 20;
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }

    ~Connection()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Send `payload` (`count` newline-terminated lines) and read
     *  `count` reply lines. False with `error` on an I/O failure. */
    bool
    exchange(const std::string &payload, std::size_t count,
             std::vector<std::string> &replies, std::string &error)
    {
        replies.clear();
        for (std::size_t sent = 0; sent < payload.size();) {
            const ssize_t n = ::send(fd_, payload.data() + sent,
                                     payload.size() - sent, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0) {
                error = std::string("send: ") + std::strerror(errno);
                return false;
            }
            sent += static_cast<std::size_t>(n);
        }
        std::string line;
        while (replies.size() < count) {
            if (framer_.next(line)) {
                replies.push_back(std::move(line));
                continue;
            }
            char buf[65536];
            const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0) {
                error = n == 0 ? "connection closed"
                               : std::string("recv: ") + std::strerror(errno);
                return false;
            }
            framer_.feed({buf, static_cast<std::size_t>(n)});
        }
        return true;
    }

    /** One request line, one reply. */
    bool
    request(const std::string &line, std::string &reply, std::string &error)
    {
        std::vector<std::string> replies;
        if (!exchange(line + "\n", 1, replies, error))
            return false;
        reply = std::move(replies.front());
        return true;
    }

  private:
    int fd_ = -1;
    serve::LineFramer framer_;
};

/**
 * The body of a well-formed miss response for `key`, or nullopt.
 * Misses carry no full expectation up front: the key is checked here
 * and sampled bodies are recomputed in-process.
 */
std::optional<std::string>
missBody(const std::string &key, const std::string &response)
{
    const std::string probe =
        serve::okCachedResponse("run", false, key, "\x01");
    const std::size_t at = probe.find('\x01');
    const std::string_view suffix = std::string_view(probe).substr(at + 1);
    if (response.size() <= probe.size() - 1 ||
        response.compare(0, at, probe, 0, at) != 0 ||
        !response.ends_with(suffix))
        return std::nullopt;
    return response.substr(at, response.size() - at - suffix.size());
}

/** Response checking for one connection task (not shared). */
struct Checker
{
    const Traffic *traffic = nullptr;
    /** The hit response line per warm key, once warm. */
    const std::vector<std::string> *hitLines = nullptr;
    /** Misses answered: sampled for recompute, replayed when traced. */
    std::vector<SeenMiss> misses;
    std::vector<std::string> errors;

    bool
    check(const Burst &burst, const std::vector<std::string> &replies)
    {
        bool ok = true;
        for (std::size_t i = 0; i < burst.requests.size(); ++i) {
            const Request &r = burst.requests[i];
            const std::string &reply = replies[i];
            const bool good = r.miss
                ? missBody(traffic->fresh[r.key].key, reply).has_value()
                : reply == (*hitLines)[r.key];
            if (!good)
                errors.push_back(burst.line(r) + " answered " +
                                 reply.substr(0, 160));
            else if (r.miss)
                misses.push_back({r.key, burst.line(r), reply});
            ok = ok && good;
        }
        return ok;
    }
};

/** What warming the cache with every warm key left behind. */
struct WarmCache
{
    /** Body each warm key was first answered with. */
    std::vector<std::string> bodies;
    /** The byte-exact hit response per warm key. */
    std::vector<std::string> hitLines;
};

/** Sends one request line and returns its reply; false with an error
 *  message when no reply came. */
using Ask = std::function<bool(const std::string &line, std::string &reply,
                               std::string &error)>;

/** Ask for every warm key once (each a miss), keeping its body. */
bool
warmUp(const Ask &ask, const Traffic &traffic, WarmCache &warm,
       std::vector<std::string> &errors)
{
    std::string reply, error;
    for (std::size_t j = 0; j < traffic.warm.size(); ++j) {
        const RunKey &k = traffic.warm[j];
        std::optional<std::string> body;
        if (ask(traffic.warmLines[j], reply, error))
            body = missBody(k.key, reply);
        if (!body) {
            errors.push_back("warm-up " + traffic.warmLines[j] + ": " +
                             error + reply.substr(0, 160));
            return false;
        }
        warm.bodies.push_back(*body);
        warm.hitLines.push_back(
            serve::okCachedResponse("run", true, k.key, *body));
    }
    return true;
}

/** The daemon's options; a persistent one starts from an empty
 *  directory, so every start recovers the same (empty) state. */
serve::ServerOptions
serverOptions(unsigned jobs, const std::string &persistDir)
{
    serve::ServerOptions so;
    // The Unix-socket transport: over TCP the daemon's replies to a
    // pipelined burst stall on Nagle + delayed ACK (~40 ms a burst on
    // the reference host), which would time the kernel's ACK timer
    // rather than the hit path.
    so.listen = "serve.sock";
    so.jobs = jobs;
    // Misses must never evict a warm key: a hit turned miss would be a
    // benchmark artefact, not a daemon failure.
    so.cache.maxEntries = 0;
    if (!persistDir.empty()) {
        std::filesystem::remove_all(persistDir);
        std::filesystem::create_directories(persistDir);
        so.persistPath = persistDir + "/cache";
    }
    return so;
}

/**
 * The untraced run. Set-up is daemon start (with journal recovery)
 * plus the cache warm-up, kSetupRepeats times; the last daemon then
 * answers batches until the window has passed and kMinOps batches were
 * answered correctly. Everything runs on this thread with 1 job, timed
 * by its CPU clock.
 */
void
measureCost(Outcome &out, const ServeSpec &spec, const RunArgs &args,
            Traffic &traffic, const std::string &persistDir,
            WarmCache &warm, std::vector<SeenMiss> &seen)
{
    SetupCost setup;
    std::unique_ptr<serve::Server> server;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        server.reset(); // frees the socket path and the journal
        WarmCache w;
        std::vector<std::string> errors;
        std::string error;
        const double t0 = threadCpuSeconds();
        server = std::make_unique<serve::Server>(serverOptions(1, persistDir));
        const bool started = server->start(error);
        const bool ok =
            started &&
            warmUp(
                [&](const std::string &line, std::string &reply,
                    std::string &) {
                    reply = server->handleLine(line);
                    return true;
                },
                traffic, w, errors);
        setup.add(threadCpuSeconds() - t0);
        if (!started)
            out.fail("daemon start: " + error);
        for (const std::string &e : errors)
            out.fail(e);
        if (!ok)
            return;
        if (!warm.bodies.empty() && w.bodies != warm.bodies)
            out.fail("warm-up bodies changed between daemons");
        warm = std::move(w);
    }

    HostSpeed speed;
    Checker checker{&traffic, &warm.hitLines, {}, {}};
    std::vector<double> cost;
    const double start = steadySeconds();
    while (steadySeconds() - start < args.seconds ||
           (cost.size() < kMinOps && checker.errors.empty())) {
        const Burst b = traffic.burst(spec.batchMisses, spec.batchHits);
        std::vector<std::string> lines;
        for (const Request &r : b.requests)
            lines.push_back(b.line(r));
        const double t0 = threadCpuSeconds();
        const std::vector<std::string> replies = server->handleBatch(lines);
        const double used = threadCpuSeconds() - t0;
        speed.addWork(used);
        out.attempted += lines.size();
        if (checker.check(b, replies))
            cost.push_back(used / static_cast<double>(lines.size()));
    }
    for (const std::string &e : checker.errors)
        out.fail(e);
    seen = std::move(checker.misses);
    setCostMetrics(out, medianOp(out, cost, "daemon CPU per request"), speed,
                   setup);
}

/** What one connection task measured. */
struct ConnResult
{
    OpenLoopResult openLoop;
    std::size_t openSent = 0;
    std::vector<double> ping;
    Checker checker;
};

/** One daemon session's output. */
struct Session
{
    WarmCache warm;
    std::vector<ConnResult> conns;
    double openStart = 0.0;
    serve::ServerCounters counters;
    serve::CacheCounters cache;
    std::vector<std::string> errors;
};

/** The open loop and pings on connection `c`. */
void
measureOpenLoop(Connection &conn, std::size_t c, const ServeSpec &spec,
                const Traffic &traffic, Session &s)
{
    ConnResult &r = s.conns[c];
    std::vector<std::string> replies;
    std::string error;
    const std::vector<Burst> &bursts = traffic.open[c];
    std::vector<double> due = traffic.due[c];
    for (double &d : due)
        d += s.openStart;
    r.openLoop = runOpenLoop(
        due,
        [&](std::size_t i) {
            ++r.openSent;
            return conn.exchange(bursts[i].payload, spec.burst, replies,
                                 error);
        },
        Clock{},
        [&](std::size_t i) { return r.checker.check(bursts[i], replies); });
    if (!error.empty())
        r.checker.errors.push_back(error);

    if (c == 0) {
        std::string reply;
        for (std::size_t i = 0; i < kPings; ++i) {
            const double t0 = steadySeconds();
            if (!conn.request(R"({"verb":"ping"})", reply, error))
                break;
            r.ping.push_back(steadySeconds() - t0);
        }
    }
}

/**
 * The traced run's daemon session: start a daemon on the Unix socket,
 * warm it over connection 0, drive the open loop on kConnections
 * connections, then shut it down. The daemon's event loop and the
 * client connections run as core::Executor tasks.
 */
Session
runSession(const ServeSpec &spec, const Traffic &traffic,
           const std::string &persistDir)
{
    Session s;
    serve::Server server(serverOptions(spec.jobs, persistDir));
    std::string error;
    if (!server.start(error)) {
        s.errors.push_back("daemon start: " + error);
        return s;
    }
    const std::string address = server.address();
    s.conns.resize(kConnections);
    std::atomic<bool> warmed{false}, warmFailed{false};
    std::atomic<std::size_t> running{kConnections};

    const auto client = [&](std::size_t c) {
        ConnResult &r = s.conns[c];
        r.checker.traffic = &traffic;
        r.checker.hitLines = &s.warm.hitLines;
        try {
            Connection conn(address);
            if (c == 0) {
                if (!warmUp(
                        [&](const std::string &line, std::string &reply,
                            std::string &err) {
                            return conn.request(line, reply, err);
                        },
                        traffic, s.warm, r.checker.errors))
                    warmFailed.store(true);
                s.openStart = steadySeconds() + 0.02;
                warmed.store(true);
            }
            while (!warmed.load())
                sleepUntilSteady(steadySeconds() + 0.001);
            if (!warmFailed.load())
                measureOpenLoop(conn, c, spec, traffic, s);
        } catch (const std::exception &ex) {
            r.checker.errors.push_back(ex.what());
            warmed.store(true); // never leave another task waiting
        }
        // The last task out stops the daemon, or serve() never returns.
        if (running.fetch_sub(1) == 1) {
            try {
                Connection conn(address);
                std::string reply, err;
                if (!conn.request(R"({"verb":"shutdown"})", reply, err))
                    r.checker.errors.push_back("shutdown: " + err);
            } catch (const std::exception &ex) {
                r.checker.errors.push_back(ex.what());
            }
        }
    };

    Executor executor(static_cast<unsigned>(1 + kConnections));
    executor.forEach(1 + kConnections, [&](std::size_t task) {
        if (task == 0)
            server.serve();
        else
            client(task - 1);
    });
    s.counters = server.counters();
    s.cache = server.cacheCounters();
    return s;
}

/** The daemon's answer for a miss, recomputed in-process. */
std::string
computeBody(const RunKey &k)
{
    const Characterizer ch(machineConfig());
    return runResultJson(k.profile.name, ch.run(k.profile, k.options));
}

double
us(double seconds)
{
    return 1e6 * seconds;
}

/** Percentile of `samples` when supported, else 0 and a note. */
double
supported(Outcome &out, const std::vector<double> &samples,
          unsigned perMille, const char *what)
{
    if (supportsPercentile(samples.size(), perMille))
        return percentile(samples, perMille);
    char line[96];
    std::snprintf(line, sizeof(line), "%s: %zu samples do not support p%g",
                  what, samples.size(), perMille / 10.0);
    out.note(line);
    return 0.0;
}

/**
 * Traced replay of the measured request lines, in-process: one span
 * per hit-path step, and for sampled misses the compute, render,
 * insert and journal steps. Each replayed response must equal the
 * daemon's line.
 */
void
replayRequests(Outcome &out, const ServeSpec &spec, const Traffic &traffic,
               const Session &session, const std::vector<SeenMiss> &misses)
{
    // Replica cache holding what the daemon held after warm-up.
    serve::ResultCache cache(serve::CacheConfig{0, 0});
    for (std::size_t j = 0; j < traffic.warm.size(); ++j)
        cache.insert(traffic.warm[j].key, session.warm.bodies[j]);
    serve::CacheJournal journal;
    std::string error;
    if (!journal.open("replay.journal", error))
        throw std::runtime_error(error);

    // The first open-loop hits: (line, warm key).
    std::vector<std::pair<std::string, std::size_t>> hits;
    for (std::size_t i = 0; hits.size() < kReplayedHits; ++i) {
        const std::vector<Burst> &conn = traffic.open[i % kConnections];
        if (i / kConnections >= conn.size())
            break;
        const Burst &b = conn[i / kConnections];
        for (const Request &r : b.requests)
            if (!r.miss)
                hits.emplace_back(b.line(r), r.key);
    }

    // One request through the daemon's steps; returns the response.
    const auto handle = [&](const std::string &line, Tracer *tr,
                            std::uint64_t op,
                            ReplayRun *computed) -> std::string {
        Scoped root(tr, "bench.request", op);
        serve::Request req;
        {
            Scoped s(tr, "serve.parse", op);
            req = serve::parseRequest(line);
        }
        std::optional<wl::WorkloadProfile> profile;
        {
            Scoped s(tr, "workloads.find_profile", op);
            profile = wl::findProfile(req.benchmark);
        }
        if (!profile)
            throw std::runtime_error("replay: no profile " + req.benchmark);
        std::string text;
        {
            Scoped s(tr, "core.key_text", op);
            text = "run/" + cacheKeyText(*profile, machineConfig(),
                                         req.options);
        }
        std::string key;
        {
            Scoped s(tr, "stats.hash", op);
            key = contentHashHex(text);
        }
        const std::string *body = nullptr;
        {
            Scoped s(tr, "serve.lookup", op);
            body = cache.lookup(key);
        }
        if (body != nullptr) {
            Scoped s(tr, "serve.render", op);
            return serve::okCachedResponse("run", true, key, *body);
        }
        if (computed == nullptr)
            throw std::runtime_error("replay: a hit missed: " + line);
        {
            Scoped s(tr, "serve.miss_compute", op);
            *computed =
                replayRun(machineConfig(), *profile, req.options, tr, op);
        }
        std::string fresh;
        {
            Scoped s(tr, "serve.miss_render", op);
            fresh = runResultJson(profile->name, computed->result);
        }
        {
            Scoped s(tr, "serve.insert", op);
            cache.insert(key, fresh);
        }
        {
            Scoped s(tr, "serve.journal_append", op);
            if (!journal.append(key, fresh, error))
                throw std::runtime_error(error);
        }
        Scoped s(tr, "serve.render", op);
        return serve::okCachedResponse("run", false, key, fresh);
    };

    // Each hit runs untraced and traced, each going first on every
    // other hit, so cache warmth and host drift land on both sides of
    // the overhead figure.
    Tracer tracer;
    std::uint64_t op = 0;
    double untraced = 0.0, traced = 0.0;
    for (const auto &[line, key] : hits) {
        for (int pass = 0; pass < 2; ++pass) {
            const bool spans = (pass == 0) == (op % 2 == 0);
            const double t0 = steadySeconds();
            const std::string reply =
                handle(line, spans ? &tracer : nullptr, op, nullptr);
            (spans ? traced : untraced) += steadySeconds() - t0;
            if (reply != session.warm.hitLines[key])
                out.fail("replayed hit differs from the daemon's: " + line);
        }
        ++op;
    }
    std::vector<Span> spans = tracer.spans();
    const double n = static_cast<double>(hits.size());
    for (const auto &[name, self] : selfTimeByName(spans)) {
        if (name == "serve.parse")
            out.set("serve.parse_us", "us", us(self) / n);
        else if (name == "workloads.find_profile")
            out.set("workloads.find_profile_us", "us", us(self) / n);
        else if (name == "core.key_text")
            out.set("core.key_text_us", "us", us(self) / n);
        else if (name == "stats.hash")
            out.set("stats.hash_us", "us", us(self) / n);
        else if (name == "serve.lookup")
            out.set("serve.lookup_us", "us", us(self) / n);
        else if (name == "serve.render")
            out.set("serve.render_us", "us", us(self) / n);
    }
    out.set("bench.trace_overhead_frac", "frac", traced / untraced - 1.0);
    out.attempted += hits.size();

    if (spec.mix) {
        Tracer missTracer;
        std::vector<ReplayRun> runs;
        const std::size_t count = std::min(kReplayedMisses, misses.size());
        for (std::size_t i = 0; i < count; ++i) {
            ReplayRun run;
            if (handle(misses[i].line, &missTracer, op++, &run) !=
                misses[i].response)
                out.fail("replayed miss differs from the daemon's: " +
                         misses[i].line);
            runs.push_back(run);
        }
        const std::vector<Span> &ms = missTracer.spans();
        double computeSeconds = 0.0;
        for (const Span &s : ms)
            if (s.name == "serve.miss_compute")
                computeSeconds += s.end - s.start;
        const double m = static_cast<double>(std::max<std::size_t>(count, 1));
        out.set("serve.miss_compute_ms", "ms", 1e3 * computeSeconds / m);
        for (const auto &[name, self] : selfTimeByName(ms)) {
            if (name == "serve.miss_render")
                out.set("serve.miss_render_us", "us", us(self) / m);
            else if (name == "serve.insert")
                out.set("serve.insert_us", "us", us(self) / m);
            else if (name == "serve.journal_append")
                out.set("serve.journal_append_us", "us", us(self) / m);
        }
        setSimLayerMetrics(out, ms, runs, 1, computeSeconds);
        out.attempted += count;
        appendSpans(spans, ms);
    }
    out.set("bench.unattributed_frac", "frac", unattributedFraction(spans));
    out.spans = std::move(spans);
}

/** The traced run's per-layer metrics from the open-loop session. */
void
reportOpenLoop(Outcome &out, const ServeSpec &spec, const Traffic &traffic,
               const Session &session, const std::vector<SeenMiss> &seen)
{
    // Hit latencies are per burst on serve-hit, per request on
    // serve-mix, where a hit over 1 ms waited behind a miss batch.
    std::vector<double> hits, misses, lag;
    for (std::size_t c = 0; c < kConnections; ++c) {
        const ConnResult &r = session.conns[c];
        if (r.openSent != traffic.open[c].size())
            out.fail("connection " + std::to_string(c) + " stopped after " +
                     std::to_string(r.openSent) + " open-loop bursts");
        for (std::size_t k = 0; k < r.openLoop.latency.size(); ++k) {
            const bool miss =
                traffic.open[c][r.openLoop.completed[k]].requests.front().miss;
            (miss ? misses : hits).push_back(r.openLoop.latency[k]);
        }
        lag.insert(lag.end(), r.openLoop.lag.begin(), r.openLoop.lag.end());
    }
    if (hits.empty() || (spec.mix && misses.empty())) {
        out.fail("the open loop completed no hit or no miss");
        return;
    }
    out.set("serve.hit_p50_us", "us", us(median(hits)));
    out.set("serve.hit_p99_us", "us", us(supported(out, hits, 990, "hits")));
    out.set("serve.hit_p999_us", "us",
            us(supported(out, hits, 999, "hits")));
    if (spec.mix) {
        const auto slow = std::count_if(hits.begin(), hits.end(),
                                        [](double h) { return h > 1e-3; });
        out.set("serve.hit_over_1ms_frac", "frac",
                static_cast<double>(slow) / static_cast<double>(hits.size()));
        out.set("serve.miss_p50_ms", "ms", 1e3 * median(misses));
        out.set("serve.miss_p95_ms", "ms",
                1e3 * supported(out, misses, 950, "misses"));
    }
    out.set("bench.gen_lag_p99_us", "us", us(percentile(lag, 990)));
    out.set("bench.hit_samples", "count", static_cast<double>(hits.size()));
    out.set("bench.miss_samples", "count",
            static_cast<double>(misses.size()));
    if (!session.conns[0].ping.empty())
        out.set("serve.ping_p50_us", "us",
                us(median(session.conns[0].ping)));
    const serve::CacheCounters &cc = session.cache;
    out.set("serve.cache_hit_ratio", "frac",
            static_cast<double>(cc.hits) /
                static_cast<double>(
                    std::max<std::uint64_t>(cc.hits + cc.misses, 1)));
    out.set("serve.requests", "count",
            static_cast<double>(session.counters.requests));
    out.set("serve.errors", "count",
            static_cast<double>(session.counters.errors));
    out.set("serve.overloaded", "count",
            static_cast<double>(session.counters.overloaded));
    out.set("serve.checkpoints", "count",
            static_cast<double>(session.counters.checkpoints));
    replayRequests(out, spec, traffic, session, seen);
}

Outcome
runServe(const ServeSpec &spec, const RunArgs &args)
{
    Outcome out;
    Traffic traffic(args);
    const std::string persist = spec.mix ? "serve-cache" : "";
    WarmCache warm;
    std::vector<SeenMiss> seen;
    Session session;
    if (args.trace) {
        traffic.planOpenLoop(spec, args);
        session = runSession(spec, traffic, persist);
        for (const std::string &e : session.errors)
            out.fail(e);
        for (const ConnResult &r : session.conns) {
            out.attempted += r.openSent * spec.burst;
            for (const std::string &e : r.checker.errors)
                out.fail(e);
            seen.insert(seen.end(), r.checker.misses.begin(),
                        r.checker.misses.end());
        }
        warm = session.warm;
    } else {
        measureCost(out, spec, args, traffic, persist, warm, seen);
    }
    if (warm.bodies.size() != traffic.warm.size()) {
        out.fail("the cache warm-up did not complete");
        return out;
    }

    // Recompute sampled bodies in-process: warm keys and misses.
    SeededRng pick(args.seed + 99);
    for (std::size_t i = 0; i < kVerifiedBodies; ++i) {
        const std::size_t j = pick.below(traffic.warm.size());
        if (warm.bodies[j] != computeBody(traffic.warm[j]))
            out.fail("warm body differs from an in-process run");
    }
    for (std::size_t i = 0; i < kVerifiedBodies && !seen.empty(); ++i) {
        const SeenMiss &m = seen[pick.below(seen.size())];
        const RunKey &k = traffic.fresh[m.key];
        if (missBody(k.key, m.response) != computeBody(k))
            out.fail("miss body differs from an in-process run");
    }
    if (args.trace && out.correct)
        reportOpenLoop(out, spec, traffic, session, seen);
    return out;
}

} // namespace

Outcome
runServeHit(const RunArgs &args)
{
    return runServe({1, 4000.0, 16, false, 0, 16}, args);
}

Outcome
runServeMix(const RunArgs &args)
{
    return runServe({2, 100.0, 1, true, kMissKinds, 7 * kMissKinds}, args);
}

} // namespace perfbench
