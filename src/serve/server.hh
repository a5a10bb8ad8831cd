/**
 * @file
 * The `netchar serve` daemon: characterization-as-a-service.
 *
 * A Server listens on a Unix-domain or loopback TCP socket, reads
 * newline-delimited JSON requests (serve/protocol.hh) and answers
 * through a content-addressed result cache (serve/cache.hh). All
 * socket I/O and cache bookkeeping happen on the single thread
 * inside serve(); parallelism lives below it — each poll round's
 * complete request lines are handled as one batch, and the batch's
 * uncached `run` requests fan out together over the core::Executor
 * (sweeps parallelize internally through Characterizer::runAll).
 * That layering keeps responses a pure function of requests: no
 * locks around the cache, no cross-request ordering races.
 *
 * A daemon started with shard i/n (ServerOptions::shard/shards)
 * answers sweep requests only for its round-robin slice of the
 * suite; `netchar query --merge` reassembles the partials
 * byte-identically to a single-process sweep (serve/shard.hh).
 *
 * Robustness layer (docs/ARCHITECTURE.md, "Overload, drain &
 * recovery"):
 *
 *  - Admission control: each poll round admits a bounded number of
 *    requests and request bytes; excess lines are shed in arrival
 *    order with a structured `overloaded` error carrying a
 *    retry-after hint, never silently queued. Per-request
 *    deadlines ("deadlineMs") shed work whose budget expired while
 *    queued. Oversized request lines and idle (slowloris)
 *    connections are evicted with bounded memory.
 *  - Graceful drain: SIGTERM/SIGINT (installDrainSignalHandlers())
 *    or beginDrain() flip the daemon into draining mode — in-flight
 *    batches finish, buffered and new work is refused with
 *    `draining`, the cache is checkpointed, serve() returns 0.
 *  - Crash safety: every cache insert is appended to a checksummed
 *    journal (serve/journal.hh), the daemon's only persisted state,
 *    before the response is sent. The journal is compacted to one
 *    record per live entry (temp-file + rename) on start, when the
 *    records appended since the last compaction outgrow
 *    ServerOptions::checkpointBytes, and on clean shutdown. start()
 *    replays it, skipping any torn or corrupt tail and reporting
 *    what it dropped.
 *  - Wire chaos: a seeded WireFaultPlan (core/faults.hh) perturbs
 *    response delivery (split/merged/stalled frames, mid-response
 *    resets, journal tail truncation) without ever changing
 *    response bytes — the determinism contract under fault.
 */

#ifndef NETCHAR_SERVE_SERVER_HH
#define NETCHAR_SERVE_SERVER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/canonical.hh"
#include "core/executor.hh"
#include "core/faults.hh"
#include "serve/cache.hh"
#include "serve/journal.hh"
#include "serve/protocol.hh" // LineFramer

namespace netchar::serve
{

/** Daemon configuration. */
struct ServerOptions
{
    /**
     * Listen address: `host:port` (TCP; port 0 picks a free port,
     * reported by address()) or a filesystem path (Unix-domain
     * socket, created on start and unlinked on shutdown).
     */
    std::string listen;
    /** Executor concurrency for run batches and sweeps
     *  (0 = one per hardware thread). */
    unsigned jobs = 1;
    /** Retry budget per sweep run (Parallelism::maxAttempts). */
    unsigned maxAttempts = 2;
    /** Sweep shard this worker owns (0-based) ... */
    unsigned shard = 0;
    /** ... of this many workers (1 = unsharded). */
    unsigned shards = 1;
    /** Result-cache budgets. */
    CacheConfig cache;
    /** When non-empty: the cache persists in the journal
     *  `persistPath + ".journal"`, replayed on start(). The file
     *  `persistPath` itself is neither written nor read. */
    std::string persistPath;

    // --- Admission control ---
    /** Requests admitted per poll round; excess lines are shed with
     *  `overloaded` (0 = unlimited). */
    std::size_t maxBatchRequests = 64;
    /** Request bytes admitted per poll round before shedding with
     *  `overloaded` (0 = unlimited). */
    std::uint64_t maxBatchBytes = 4ULL * 1024 * 1024;
    /** Longest accepted request line; beyond it the connection gets
     *  an `oversized` error and is closed (0 = unlimited). */
    std::size_t maxLineBytes = 1024 * 1024;
    /** Backoff hint carried by `overloaded` errors and honored by
     *  serve::Client. */
    std::uint64_t retryAfterMs = 25;
    /** Evict a connection silent for this long (slowloris guard;
     *  0 = never). Also the send timeout on accepted sockets. */
    std::uint64_t idleTimeoutMs = 30000;

    // --- Crash safety / chaos ---
    /** Compact the journal once the records appended since the
     *  last compaction exceed this size (0 = only on start and
     *  shutdown). */
    std::uint64_t checkpointBytes = 1024 * 1024;
    /** Seeded wire-fault plan (disabled by default). */
    WireFaultPlan chaosWire;
};

/** Request counters (the `stats` verb's serving section). */
struct ServerCounters
{
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    std::uint64_t connections = 0;
    /** Lines shed by per-round admission budgets. */
    std::uint64_t overloaded = 0;
    /** Requests whose own deadline expired while queued. */
    std::uint64_t deadlineExpired = 0;
    /** Connections dropped for an over-budget request line. */
    std::uint64_t oversized = 0;
    /** Lines refused while draining. */
    std::uint64_t drained = 0;
    /** Connections evicted by the idle timeout. */
    std::uint64_t idleEvicted = 0;
    /** Wire faults injected by the chaos plan. */
    std::uint64_t wireFaults = 0;
    /** Journal compactions after start(): over budget or at
     *  shutdown. */
    std::uint64_t checkpoints = 0;
};

class Server
{
  public:
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind and listen (and when persistence is configured: replay
     * the journal into the cache — skipping a torn or corrupt tail,
     * see recovery() — and compact it). Returns false with a message
     * in `error` on any failure; the daemon must not half-start.
     */
    [[nodiscard]]
    bool start(std::string &error);

    /** Resolved listen address (TCP port 0 filled in). Valid after
     *  start(). */
    const std::string &address() const { return address_; }

    /**
     * Accept and answer requests until a `shutdown` request arrives
     * or a drain is requested. Returns 0 on clean shutdown or drain
     * (cache checkpointed when configured), 1 on an unrecoverable
     * I/O failure.
     */
    int serve();

    /**
     * Answer one request line (no socket involved): the unit-test
     * and in-process entry point. Exactly the computation serve()
     * performs per line, including cache effects.
     */
    std::string handleLine(const std::string &line);

    /**
     * Answer a batch of request lines in order: uncached `run`
     * requests across the whole batch execute as one Executor
     * fan-out. serve() feeds every admitted line of a poll round
     * through here. `enqueuedAtMs` (parallel to `lines`, monotonic
     * milliseconds; nullptr = no queue timing) lets requests with a
     * "deadlineMs" budget be shed with a `deadline` error once
     * their time in queue exceeds it.
     */
    std::vector<std::string>
    handleBatch(const std::vector<std::string> &lines,
                const std::vector<std::uint64_t> *enqueuedAtMs =
                    nullptr);

    /**
     * Flip into draining mode: stop accepting connections, answer
     * all further requests with a `draining` error. serve() then
     * flushes, checkpoints and returns 0. Idempotent; callable
     * before serve() for tests.
     */
    void beginDrain();

    /**
     * Install SIGTERM/SIGINT handlers that request a graceful drain
     * of every Server in the process (the handler only sets an
     * async-signal-safe flag; serve() loops notice it within one
     * poll tick). Call once from the daemon entry point.
     */
    static void installDrainSignalHandlers();

    /** True once a shutdown request has been answered. */
    [[nodiscard]]
    bool stopping() const { return stopping_; }

    /** True once draining has begun. */
    [[nodiscard]]
    bool draining() const { return draining_; }

    const ServerCounters &counters() const { return counters_; }
    const CacheCounters &cacheCounters() const
    {
        return cache_.counters();
    }

    /** What start()'s journal replay recovered and dropped. Since
     *  every compaction rewrites the live entries as records, the
     *  recovered count includes them, not only the inserts appended
     *  since the last compaction. */
    const JournalRecoveryReport &recovery() const
    {
        return recovery_;
    }

  private:
    struct Connection
    {
        int fd = -1;
        LineFramer framer;
        /** Response bytes withheld by a MergeFrames wire fault,
         *  flushed at the next send or poll tick. */
        std::string held;
        /** monotonicMillis() of the last received byte. */
        std::uint64_t lastActivityMs = 0;
        bool open = true;
    };

    std::string handleParsed(const struct Request &request);
    std::string statsBody() const;
    void closeListener();
    std::string journalPath() const;
    /** Insert into the cache, journal the insert, and checkpoint
     *  when the journal is over budget. */
    void recordInsert(const std::string &key, const std::string &body);
    /** Compact the journal to the cache's live entries. */
    [[nodiscard]]
    bool checkpoint(std::string &error);
    /** Send one response frame, applying any wire fault the chaos
     *  plan assigns to this response sequence number. */
    void deliverResponse(Connection &conn, const std::string &frame);
    /** Flush a connection's merge-held bytes. */
    void flushHeld(Connection &conn);

    ServerOptions options_;
    std::string address_;
    ResultCache cache_;
    Executor executor_;
    /** Canonical key texts and run-key hash heads, built once per
     *  process. */
    const RunKeyTable &runKeys_;
    ServerCounters counters_;
    CacheJournal journal_;
    JournalRecoveryReport recovery_;
    std::uint64_t responseSequence_ = 0;
    int listenFd_ = -1;
    /** The bound Unix socket path, unlinked on close ("" = TCP). */
    std::string unixPath_;
    bool stopping_ = false;
    bool draining_ = false;
};

} // namespace netchar::serve

#endif // NETCHAR_SERVE_SERVER_HH
