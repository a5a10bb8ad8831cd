#include "serve/server.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/canonical.hh"
#include "core/export.hh"
#include "core/subset.hh"
#include "serve/protocol.hh"
#include "serve/shard.hh"
#include "sim/config.hh"
#include "workloads/registry.hh"

namespace netchar::serve
{

namespace
{

/**
 * This daemon's share of a sweep: its rows and failures tagged with
 * their suite indices, so `netchar query --merge` can reassemble the
 * single-process output from every shard's body.
 */
std::string
sweepBody(const Request &request, const ServerOptions &options,
          std::size_t suiteSize, const std::vector<std::size_t> &indices,
          const std::vector<wl::WorkloadProfile> &slice,
          const std::vector<RunResult> &results,
          const SuiteRunStats &stats)
{
    SweepPartial partial;
    partial.suite = request.suite;
    partial.format = request.format;
    partial.shard = options.shard;
    partial.shards = options.shards;
    partial.suiteSize = suiteSize;
    const bool csv = request.format == "csv";
    if (csv)
        partial.header = metricsCsvHeader();
    for (std::size_t j = 0; j < slice.size(); ++j)
        partial.rows.push_back(
            {indices[j], slice[j].name,
             csv ? metricsCsvRow(slice[j].name, results[j])
                 : runResultJson(slice[j].name, results[j])});
    partial.failures = stats.failures;
    for (RunFailure &f : partial.failures)
        f.index = indices[f.index]; // slice pos -> suite index
    return sweepBodyJson(partial);
}

/** A subset response body: the representatives Table IV's method
 *  picks from the suite's surviving runs. */
std::string
subsetBody(const Request &request,
           const std::vector<wl::WorkloadProfile> &profiles,
           const std::vector<RunResult> &results,
           const SuiteRunStats &stats)
{
    SubsetOptions sopts;
    sopts.subsetSize = request.subsetSize;
    const SurvivorSubset survivors =
        buildSurvivorSubset(results, stats, sopts);
    const SubsetResult &subset = survivors.subset;

    std::ostringstream body;
    body << "{\"suite\":" << jsonString(request.suite)
         << ",\"size\":" << request.subsetSize
         << ",\"total\":" << profiles.size()
         << ",\"surviving\":" << survivors.surviving
         << ",\"prcoVariance\":"
         << exportNumber(subset.pca.cumulativeExplained())
         << ",\"representatives\":[";
    for (std::size_t c = 0; c < subset.clusters.size(); ++c) {
        if (c > 0)
            body << ',';
        body << "{\"benchmark\":"
             << jsonString(profiles[subset.representatives[c]].name)
             << ",\"clusterSize\":" << subset.clusters[c].size()
             << '}';
    }
    body << "]}";
    return body.str();
}

/** Structured shed response for an expired per-request deadline. The
 *  rendered value is the request's own budget, never a clock. */
std::string
deadlineError(std::uint64_t deadlineMs)
{
    return errorCodeResponse(
        "deadline", "deadline of " + std::to_string(deadlineMs) +
                        "ms expired before the request was served");
}

/**
 * Socket options for a freshly accepted connection.
 *  - A send timeout (`sendTimeoutMs` != 0): a peer that stops
 *    reading is evicted instead of blocking the loop.
 *  - TCP_NODELAY on TCP connections: a response frame leaves at
 *    once instead of waiting, under Nagle's algorithm, for the
 *    peer's delayed ACK of the previous one. Unix sockets have no
 *    such option.
 */
void
configureAccepted(int fd, bool tcp, std::uint64_t sendTimeoutMs)
{
    setSocketTimeout(fd, sendTimeoutMs, false);
    if (tcp) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
}

/** Drain request flag: the only thing the SIGTERM/SIGINT handler
 *  touches. The handler runs on whichever thread the signal hits
 *  while serve() reads and clears the flag, so it is a lock-free
 *  atomic (async-signal-safe and race-free). Polled by every serve()
 *  loop within one tick. */
std::atomic<int> gDrainRequested{0};
static_assert(std::atomic<int>::is_always_lock_free);

void
onDrainSignal(int)
{
    gDrainRequested.store(1);
}

} // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), cache_(options_.cache),
      executor_(options_.jobs), runKeys_(RunKeyTable::instance())
{
}

Server::~Server() { closeListener(); }

void
Server::closeListener()
{
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (!unixPath_.empty()) {
        ::unlink(unixPath_.c_str());
        unixPath_.clear();
    }
}

bool
Server::start(std::string &error)
{
    if (options_.shards == 0 || options_.shard >= options_.shards) {
        error = "shard " + std::to_string(options_.shard) + "/" +
                std::to_string(options_.shards) +
                " needs 0 <= shard < shards";
        return false;
    }
    Endpoint endpoint;
    if (!parseEndpoint(options_.listen, endpoint, error))
        return false;
    if (!options_.persistPath.empty()) {
        // The journal is the only persisted state. replay() stops at
        // the first torn or corrupt record — after a crash the
        // recovered cache is exactly a prefix of the file's records,
        // never a corrupt entry, never a refused start (the
        // kill-at-every-offset sweep in tests/serve/ asserts this).
        std::vector<std::pair<std::string, std::string>> replayed;
        if (!CacheJournal::replay(journalPath(), replayed, recovery_,
                                  error))
            return false;
        for (auto &[key, body] : replayed)
            cache_.restore(key, std::move(body));
        if (recovery_.recordsDropped != 0 ||
            recovery_.bytesDropped != 0)
            std::fprintf(stderr,
                         "serve: journal recovery dropped %llu "
                         "record(s), %llu byte(s): %s\n",
                         static_cast<unsigned long long>(
                             recovery_.recordsDropped),
                         static_cast<unsigned long long>(
                             recovery_.bytesDropped),
                         recovery_.note.c_str());
        // Compact what survived: the torn tail and superseded
        // records are gone, and appends start after a clean record.
        if (!journal_.open(journalPath(), error) ||
            !journal_.compact(cache_, error))
            return false;
    }

    listenFd_ = ::socket(endpoint.address.ss_family, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    // Name the call that failed and undo what start() made so far.
    const auto fail = [&](const std::string &call) {
        error = call + ": " + std::strerror(errno);
        closeListener();
        return false;
    };
    if (endpoint.tcp()) {
        const int one = 1;
        ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
    } else {
        ::unlink(options_.listen.c_str()); // stale socket from a
                                           // crashed daemon
    }
    if (::bind(listenFd_, endpoint.sockAddress(), endpoint.length) != 0)
        return fail("bind " + options_.listen);
    if (!endpoint.tcp())
        unixPath_ = options_.listen; // closeListener() unlinks it
    if (::listen(listenFd_, 64) != 0)
        return fail("listen");
    if (!endpoint.tcp()) {
        address_ = unixPath_;
        return true;
    }
    // Port 0 picks a free port: report the one actually bound.
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    char host[INET_ADDRSTRLEN] = {};
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&bound),
                      &len) != 0)
        return fail("getsockname");
    ::inet_ntop(AF_INET, &bound.sin_addr, host, sizeof(host));
    address_ = std::string(host) + ":" +
               std::to_string(ntohs(bound.sin_port));
    return true;
}

std::string
Server::statsBody() const
{
    const CacheCounters &c = cache_.counters();
    std::ostringstream os;
    os << "{\"serving\":{\"requests\":" << counters_.requests
       << ",\"errors\":" << counters_.errors
       << ",\"connections\":" << counters_.connections
       << ",\"shard\":" << options_.shard
       << ",\"shards\":" << options_.shards
       << ",\"jobs\":" << options_.jobs
       << "},\"admission\":{\"overloaded\":" << counters_.overloaded
       << ",\"deadlineExpired\":" << counters_.deadlineExpired
       << ",\"oversized\":" << counters_.oversized
       << ",\"drained\":" << counters_.drained
       << ",\"idleEvicted\":" << counters_.idleEvicted
       << ",\"wireFaults\":" << counters_.wireFaults
       << "},\"journal\":{\"recovered\":"
       << recovery_.recordsRecovered
       << ",\"dropped\":" << recovery_.recordsDropped
       << ",\"bytesDropped\":" << recovery_.bytesDropped
       << ",\"checkpoints\":" << counters_.checkpoints
       << ",\"bytes\":" << journal_.bytes()
       << "},\"cache\":{\"hits\":" << c.hits
       << ",\"misses\":" << c.misses
       << ",\"evictions\":" << c.evictions
       << ",\"inserts\":" << c.inserts
       << ",\"entries\":" << c.entries << ",\"bytes\":" << c.bytes
       << "}}";
    return os.str();
}

std::string
Server::journalPath() const
{
    return options_.persistPath + ".journal";
}

void
Server::recordInsert(const std::string &key, const std::string &body)
{
    cache_.insert(key, body);
    if (!journal_.isOpen())
        return;
    // Journal before the response leaves the daemon: an acknowledged
    // result is never less durable than its acknowledgment.
    std::string error;
    if (!journal_.append(key, body, error)) {
        std::fprintf(stderr, "serve: %s\n", error.c_str());
        return;
    }
    if (options_.checkpointBytes != 0 &&
        journal_.bytes() > options_.checkpointBytes) {
        if (!checkpoint(error))
            std::fprintf(stderr, "serve: %s\n", error.c_str());
    }
}

bool
Server::checkpoint(std::string &error)
{
    if (options_.persistPath.empty())
        return true;
    if (!journal_.compact(cache_, error))
        return false;
    ++counters_.checkpoints;
    return true;
}

std::string
Server::handleParsed(const Request &request)
{
    switch (request.verb) {
    case Verb::Ping:
        return okResponse("ping", "\"pong\"");
    case Verb::Stats:
        return okResponse("stats", statsBody());
    case Verb::Shutdown:
        stopping_ = true;
        return okResponse("shutdown", "\"bye\"");
    case Verb::Run:
        // Handled by the batch path; reaching here is a logic error
        // worth a structured answer rather than an assert.
        return errorResponse("internal: run outside batch");
    case Verb::Sweep:
    case Verb::Subset:
        break;
    }

    // parseRequest accepted only registered machine and suite keys.
    const bool sweep = request.verb == Verb::Sweep;
    const std::string verb(verbName(request.verb));
    const wl::Suite suite = *wl::suiteForKey(request.suite);
    const auto profiles = wl::suiteProfiles(suite);
    // Registry index of profiles[0]: the key table's profile texts.
    const std::size_t first = wl::suiteBegin(suite);
    // A sweep runs this daemon's shard of the suite. A subset always
    // runs the full suite (PCA + clustering need the whole metric
    // matrix), so sharded daemons answer it identically.
    const auto indices =
        sweep ? shardIndices(profiles.size(), options_.shard,
                             options_.shards)
              : shardIndices(profiles.size(), 0, 1);

    std::vector<wl::WorkloadProfile> slice;
    std::vector<std::size_t> registry;
    for (const std::size_t idx : indices) {
        slice.push_back(profiles[idx]);
        registry.push_back(first + idx);
    }
    const std::string key =
        sweep ? runKeys_.sweepKey(request.suite, request.format,
                                  options_.shard, options_.shards,
                                  options_.maxAttempts, request.machine,
                                  request.options, registry)
              : runKeys_.subsetKey(request.suite, request.subsetSize,
                                   options_.maxAttempts, request.machine,
                                   request.options, registry);
    if (const std::string *body = cache_.lookup(key))
        return okCachedResponse(verb, true, key, *body);

    Characterizer ch(sim::findMachineModel(request.machine)->make());
    Parallelism par;
    par.jobs = options_.jobs;
    par.maxAttempts = options_.maxAttempts;
    std::string body;
    try {
        SuiteRunStats stats;
        const std::vector<RunResult> results =
            ch.runAll(slice, request.options, par, &stats);
        body = sweep ? sweepBody(request, options_, profiles.size(),
                                 indices, slice, results, stats)
                     : subsetBody(request, slice, results, stats);
    } catch (const std::exception &ex) {
        ++counters_.errors;
        return errorResponse(verb + ": " + ex.what());
    }
    recordInsert(key, body);
    return okCachedResponse(verb, false, key, body);
}

std::vector<std::string>
Server::handleBatch(const std::vector<std::string> &lines,
                    const std::vector<std::uint64_t> *enqueuedAtMs)
{
    counters_.requests += lines.size();
    if (draining_) {
        // Drain contract: in-flight batches finished before this
        // one was formed; everything newer is refused with a
        // structured error so the client fails over.
        counters_.drained += lines.size();
        return std::vector<std::string>(
            lines.size(),
            errorCodeResponse("draining",
                              "server is draining; retry against "
                              "another replica"));
    }
    std::vector<std::string> responses(lines.size());

    struct Parsed
    {
        bool ok = false;
        Request request;
    };
    std::vector<Parsed> parsed(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
        try {
            parsed[i].request = parseRequest(lines[i]);
            parsed[i].ok = true;
        } catch (const ProtocolError &ex) {
            ++counters_.errors;
            responses[i] = errorResponse(ex.what());
        }
    }

    // The batch's uncached run requests execute as one Executor
    // fan-out; in-batch duplicates compute once and share the body.
    struct RunJob
    {
        std::string key;
        wl::WorkloadProfile profile;
        sim::MachineConfig config;
        RunOptions options;
        std::vector<std::size_t> lines;
        std::string body;
        std::string error;
    };
    std::vector<RunJob> jobs;
    std::map<std::string, std::size_t> jobByKey;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (!parsed[i].ok || parsed[i].request.verb != Verb::Run)
            continue;
        const Request &r = parsed[i].request;
        if (enqueuedAtMs != nullptr && r.deadlineMs != 0 &&
            monotonicMillis() - (*enqueuedAtMs)[i] > r.deadlineMs) {
            ++counters_.deadlineExpired;
            responses[i] = deadlineError(r.deadlineMs);
            continue;
        }
        const auto profile = wl::profileIndex(r.benchmark);
        if (!profile) {
            ++counters_.errors;
            responses[i] = errorResponse("unknown benchmark '" +
                                         r.benchmark + "'");
            continue;
        }
        const std::string key =
            runKeys_.runKey(*profile, r.machine, r.options);
        if (const std::string *body = cache_.lookup(key)) {
            responses[i] = okCachedResponse("run", true, key, *body);
            continue;
        }
        const auto it = jobByKey.find(key);
        if (it != jobByKey.end()) {
            jobs[it->second].lines.push_back(i);
            continue;
        }
        jobByKey[key] = jobs.size();
        jobs.push_back({key, wl::registeredProfiles()[*profile],
                        sim::findMachineModel(r.machine)->make(),
                        r.options, {i}, "", ""});
    }

    if (!jobs.empty()) {
        const auto failures = executor_.forEachCollect(
            jobs.size(), [&](std::size_t j) {
                Characterizer ch(jobs[j].config);
                const RunResult result =
                    ch.run(jobs[j].profile, jobs[j].options);
                jobs[j].body =
                    runResultJson(jobs[j].profile.name, result);
            });
        for (const TaskFailure &f : failures)
            jobs[f.index].error = f.what;
        for (const RunJob &job : jobs) {
            if (!job.error.empty()) {
                counters_.errors += job.lines.size();
                for (const std::size_t i : job.lines)
                    responses[i] = errorResponse("run: " + job.error);
                continue;
            }
            recordInsert(job.key, job.body);
            for (const std::size_t i : job.lines)
                responses[i] =
                    okCachedResponse("run", false, job.key, job.body);
        }
    }

    // Everything else answers inline, in request order (sweeps and
    // subsets parallelize internally through runAll). Each inline
    // request re-checks its deadline here: the run fan-out and the
    // inline requests ahead of it may have consumed its budget.
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (!responses[i].empty() || !parsed[i].ok)
            continue;
        const Request &r = parsed[i].request;
        if (enqueuedAtMs != nullptr && r.deadlineMs != 0 &&
            monotonicMillis() - (*enqueuedAtMs)[i] > r.deadlineMs) {
            ++counters_.deadlineExpired;
            responses[i] = deadlineError(r.deadlineMs);
            continue;
        }
        responses[i] = handleParsed(r);
    }
    return responses;
}

std::string
Server::handleLine(const std::string &line)
{
    return handleBatch({line}).front();
}

void
Server::beginDrain()
{
    if (draining_)
        return;
    draining_ = true;
    closeListener(); // stop accepting; connect attempts fail over
}

void
Server::installDrainSignalHandlers()
{
    struct sigaction action = {};
    action.sa_handler = onDrainSignal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0; // no SA_RESTART: poll() wakes promptly
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);
}

void
Server::flushHeld(Connection &conn)
{
    if (!conn.open || conn.held.empty())
        return;
    std::string held = std::move(conn.held);
    conn.held.clear();
    if (!sendAll(conn.fd, held))
        conn.open = false;
}

void
Server::deliverResponse(Connection &conn, const std::string &frame)
{
    WireFaultDecision fault;
    if (options_.chaosWire.enabled()) {
        fault = options_.chaosWire.decide(responseSequence_);
        if (fault)
            ++counters_.wireFaults;
    }
    ++responseSequence_;

    if (fault.kind == WireFaultKind::TruncateJournal &&
        journal_.isOpen()) {
        // Torn-write chaos: chop bytes off the journal tail. The
        // next start's replay drops the torn record and recomputes
        // on demand — chaos costs cache warmth, never correctness.
        std::string error;
        if (!CacheJournal::truncateTail(journal_.path(),
                                        fault.truncateBytes, error))
            std::fprintf(stderr, "serve: %s\n", error.c_str());
    }

    if (!conn.open)
        return;

    // Bytes withheld by an earlier MergeFrames fault always travel
    // in front of this frame — order on the wire never changes.
    std::string outbound = std::move(conn.held);
    conn.held.clear();

    if (fault.kind == WireFaultKind::MergeFrames) {
        // Withhold the frame: it coalesces with this connection's
        // next frame into one segment, or goes out at the next
        // poll-tick flush.
        conn.held = frame;
        if (!outbound.empty() && !sendAll(conn.fd, outbound))
            conn.open = false;
        return;
    }

    if (fault.kind == WireFaultKind::StallWrite)
        std::this_thread::sleep_for(
            std::chrono::microseconds(fault.stallMicros));

    if (fault.kind == WireFaultKind::ResetMidResponse) {
        outbound += frame.substr(
            0, std::min<std::size_t>(fault.resetAfterBytes,
                                     frame.size()));
        // The fault tears the frame on purpose; the socket closes
        // either way, so a failed send changes nothing.
        static_cast<void>(sendAll(conn.fd, outbound));
        conn.open = false; // torn frame: the peer must retry
        return;
    }

    outbound += frame;
    if (fault.kind == WireFaultKind::SplitWrite) {
        for (std::size_t off = 0; off < outbound.size();
             off += fault.chunkBytes) {
            if (!sendAll(conn.fd, std::string_view(outbound).substr(
                                      off, fault.chunkBytes))) {
                conn.open = false;
                return;
            }
        }
        return;
    }
    if (!outbound.empty() && !sendAll(conn.fd, outbound))
        conn.open = false;
}

int
Server::serve()
{
    // Finite poll tick: the loop must wake to notice a drain
    // request, flush merge-held bytes and evict idle peers even
    // when no traffic arrives.
    constexpr int kTickMs = 50;
    std::vector<Connection> conns;
    while (true) {
        // Consume: one signal, one drain.
        if (!draining_ && gDrainRequested.exchange(0) != 0)
            beginDrain();

        const bool listening = listenFd_ >= 0;
        std::vector<pollfd> fds;
        if (listening)
            fds.push_back({listenFd_, POLLIN, 0});
        for (const Connection &conn : conns)
            fds.push_back({conn.fd, POLLIN, 0});
        if (::poll(fds.data(), fds.size(), kTickMs) < 0) {
            if (errno == EINTR)
                continue;
            std::fprintf(stderr, "serve: poll: %s\n",
                         std::strerror(errno));
            return 1;
        }
        const std::uint64_t nowMs = monotonicMillis();
        const std::size_t base = listening ? 1 : 0;

        // Merge-held bytes from the previous round go out first:
        // a withheld frame is delayed at most one tick.
        for (Connection &conn : conns)
            flushHeld(conn);

        if (listening && (fds[0].revents & POLLIN) != 0) {
            const int fd = ::accept(listenFd_, nullptr, nullptr);
            if (fd >= 0) {
                configureAccepted(fd, unixPath_.empty(),
                                  options_.idleTimeoutMs);
                Connection conn;
                conn.fd = fd;
                conn.framer = LineFramer(options_.maxLineBytes);
                conn.lastActivityMs = nowMs;
                conns.push_back(std::move(conn));
                ++counters_.connections;
            }
        }

        // Gather this round's complete lines across every readable
        // connection, applying admission control in arrival order:
        // lines beyond the per-round request/byte budgets are shed
        // immediately with `overloaded` instead of queueing.
        struct PendingLine
        {
            std::size_t conn = 0;
            std::string text;
            std::string shed; ///< pre-resolved response ("" = admit)
        };
        std::vector<PendingLine> pending;
        std::size_t admitted = 0;
        std::uint64_t admittedBytes = 0;
        for (std::size_t c = 0; base + c < fds.size(); ++c) {
            Connection &conn = conns[c];
            const short events = fds[base + c].revents;
            if ((events & (POLLIN | POLLHUP | POLLERR)) != 0) {
                char buf[4096];
                // conn holds the idle timer's clock value, which the
                // taint pass (field-blind) would pass on to the bytes.
                // netchar-lint: allow-flow(flow-wallclock) -- recv's count depends on the socket, not on conn's idle timer
                const ssize_t n =
                    ::recv(conn.fd, buf, sizeof(buf), 0);
                if (n == 0) {
                    conn.open = false;
                } else if (n < 0) {
                    if (errno != EINTR && errno != EAGAIN)
                        conn.open = false;
                } else {
                    conn.lastActivityMs = nowMs;
                    conn.framer.feed(
                        {buf, static_cast<std::size_t>(n)});
                }
            }
            if (!conn.open)
                continue;
            std::string line;
            while (conn.framer.next(line)) {
                PendingLine p;
                p.conn = c;
                p.text = std::move(line);
                const bool overRequests =
                    options_.maxBatchRequests != 0 &&
                    admitted >= options_.maxBatchRequests;
                const bool overBytes =
                    options_.maxBatchBytes != 0 &&
                    admittedBytes + p.text.size() >
                        options_.maxBatchBytes;
                if (!draining_ && (overRequests || overBytes)) {
                    ++counters_.requests;
                    ++counters_.overloaded;
                    p.shed = errorCodeResponse(
                        "overloaded",
                        "server at capacity; retry after the hint",
                        options_.retryAfterMs);
                } else {
                    ++admitted;
                    admittedBytes += p.text.size();
                }
                pending.push_back(std::move(p));
            }
            if (conn.framer.overflowed()) {
                ++counters_.requests;
                ++counters_.oversized;
                ++counters_.errors;
                deliverResponse(
                    conn,
                    errorCodeResponse(
                        "oversized",
                        "request line exceeds " +
                            std::to_string(options_.maxLineBytes) +
                            " bytes") +
                        "\n");
                conn.open = false;
            }
        }

        if (!pending.empty()) {
            std::vector<std::string> lines;
            std::vector<std::uint64_t> enqueuedAt;
            constexpr std::size_t kShed = SIZE_MAX;
            std::vector<std::size_t> slot(pending.size(), kShed);
            for (std::size_t i = 0; i < pending.size(); ++i) {
                if (!pending[i].shed.empty())
                    continue;
                slot[i] = lines.size();
                lines.push_back(pending[i].text);
                enqueuedAt.push_back(nowMs);
            }
            std::vector<std::string> responses;
            if (!lines.empty())
                responses = handleBatch(lines, &enqueuedAt);
            // Answer in arrival order per connection: shed and
            // computed responses interleave exactly as requested.
            for (std::size_t i = 0; i < pending.size(); ++i) {
                const std::string &response =
                    slot[i] == kShed ? pending[i].shed
                                     : responses[slot[i]];
                deliverResponse(conns[pending[i].conn],
                                response + "\n");
            }
        }

        if (options_.idleTimeoutMs != 0) {
            for (Connection &conn : conns) {
                if (conn.open &&
                    nowMs - conn.lastActivityMs >
                        options_.idleTimeoutMs) {
                    ++counters_.idleEvicted;
                    conn.open = false;
                }
            }
        }

        for (auto it = conns.begin(); it != conns.end();) {
            if (!it->open) {
                ::close(it->fd);
                it = conns.erase(it);
            } else {
                ++it;
            }
        }

        if (stopping_ || draining_)
            break;
    }

    for (Connection &conn : conns) {
        flushHeld(conn);
        ::close(conn.fd);
    }
    closeListener();
    if (!options_.persistPath.empty()) {
        std::string error;
        if (!checkpoint(error)) {
            std::fprintf(stderr, "serve: %s\n", error.c_str());
            return 1;
        }
        journal_.close();
    }
    return 0;
}

} // namespace netchar::serve
