/**
 * @file
 * Wire protocol of the `netchar serve` daemon.
 *
 * The protocol is newline-delimited JSON: every request is one JSON
 * object on one line, every response is one JSON object on one line.
 * A malformed request yields a structured error response, never a
 * dropped connection or a crash.
 *
 * Request grammar (docs/ARCHITECTURE.md, "Serving & caching"):
 *
 *   {"verb":"ping"}
 *   {"verb":"run","benchmark":NAME,
 *    "machine":"i9|xeon|arm","options":{...}}
 *   {"verb":"sweep","suite":"dotnet|aspnet|spec",
 *    "format":"csv|json","machine":...,"options":{...}}
 *   {"verb":"subset","suite":...,"size":K,"machine":...,
 *    "options":{...}}
 *   {"verb":"stats"}
 *   {"verb":"shutdown"}
 *
 * The "options" object accepts: warmup, measure, cores, seed,
 * jitHint, gcMode ("workstation"|"server"), gcAssist
 * ("software"|"hardware"), maxHeap, allocScale, quantum, runBudget.
 * Unknown top-level or option keys are a protocol error naming the
 * key — a typoed option must never silently fall back to a default
 * and poison the content-addressed cache with a mislabeled entry.
 *
 * Any request may also carry "deadlineMs": a per-request time budget
 * the server sheds against (0 / absent = none). The deadline is
 * operational metadata, not part of the result's identity, so it is
 * excluded from the cache key.
 *
 * Responses:
 *
 *   {"ok":true,"verb":V,...payload...}
 *   {"ok":true,"verb":V,"cache":"hit|miss","key":HEX,"body":...}
 *   {"ok":false,"error":MESSAGE}
 *   {"ok":false,"error":MESSAGE,"code":CODE[,"retryAfterMs":N]}
 *
 * where CODE names a machine-actionable refusal: "overloaded" (shed
 * by admission control; retry after the hint), "draining" (server is
 * shutting down; go elsewhere), "deadline" (the request's own budget
 * expired in queue), "oversized" (request line exceeded the framing
 * budget).
 *
 * Everything in a response is a pure function of the request and the
 * registry (no wall times, hostnames or pids), which is what makes
 * cached responses byte-identical to freshly computed ones.
 *
 * The transport pieces the daemon (serve/server.hh) and the client
 * (serve/client.hh) share live here too, once: the address rule, the
 * send loop, the line framer, the socket-timeout setter and the
 * monotonic clock.
 */

#ifndef NETCHAR_SERVE_PROTOCOL_HH
#define NETCHAR_SERVE_PROTOCOL_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include <sys/socket.h>

#include "core/characterize.hh"
#include "stats/json.hh"

namespace netchar::serve
{

// ---------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------

/** Thrown by parseRequest on any malformed request. The message is
 *  safe to send back verbatim in an error response. */
class ProtocolError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Verbs the daemon answers. */
enum class Verb { Ping, Run, Sweep, Subset, Stats, Shutdown };

/** Wire name of a verb ("ping", "run", ...). */
std::string_view verbName(Verb verb);

/** One parsed request. */
struct Request
{
    Verb verb = Verb::Ping;
    std::string benchmark; ///< run
    std::string suite;     ///< sweep / subset
    std::string machine = "i9";
    std::string format = "csv"; ///< sweep: csv | json
    std::size_t subsetSize = 8; ///< subset
    /** Per-request time budget in milliseconds (0 = none). Not part
     *  of the cache key — a deadline changes whether a result is
     *  delivered, never what the result is. */
    std::uint64_t deadlineMs = 0;
    RunOptions options;
};

/**
 * Parse one request line. Throws ProtocolError on anything
 * malformed: bad JSON, missing/unknown verb, missing benchmark or
 * suite, unknown machine/format/option key, out-of-range values.
 * Field order inside the JSON is irrelevant and omitted option
 * fields equal their explicit defaults — the two invariances the
 * cache-key canonicalization tests pin down.
 */
Request parseRequest(const std::string &line);

/** Serialize a request (the client side of the wire). */
std::string requestLine(const Request &request);

// ---------------------------------------------------------------
// Responses. These four are the serve-layer serialization surface —
// netchar-lint's taint pass treats them as sinks, so nothing
// nondeterministic can flow into a transmitted or cached response.
// ---------------------------------------------------------------

/** `{"ok":true,"verb":V,"body":BODY}` — BODY is pre-rendered JSON. */
std::string okResponse(const std::string &verb,
                       const std::string &body);

/** As okResponse with cache attribution: `"cache":"hit|miss"` and
 *  the content-address `"key":HEX` of the body. */
std::string okCachedResponse(const std::string &verb, bool hit,
                             const std::string &key,
                             const std::string &body);

/** `{"ok":false,"error":MESSAGE}`. */
std::string errorResponse(const std::string &message);

/**
 * `{"ok":false,"error":MESSAGE,"code":CODE[,"retryAfterMs":N]}` — a
 * machine-actionable refusal. `retryAfterMs` is emitted only when
 * nonzero (the `overloaded` shed path's backoff hint, honored by
 * serve::Client).
 */
std::string errorCodeResponse(const std::string &code,
                              const std::string &message,
                              std::uint64_t retryAfterMs = 0);

/** A JSON string literal: quoted + escaped. */
std::string jsonString(const std::string &raw);

/**
 * The whole-number rule for counts read off the wire: a JSON number
 * that is integral, non-negative and at most 1e18. False, leaving
 * `out` unchanged, for anything else, so 1e300 cannot saturate and
 * 0.5 cannot round to 0. Request options and sweep bodies both read
 * their counts through it.
 */
bool wholeNumber(const JsonValue &v, std::uint64_t &out);

// ---------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------

/**
 * Incremental NDJSON line framer with a per-line byte budget.
 *
 * The daemon feeds raw socket chunks in whatever sizes the transport
 * delivers them — one byte at a time, several requests merged into
 * one segment, a frame split across many reads — and next() yields
 * exactly the complete lines, in order, independent of the chunking
 * (the adversarial-framing fuzz tests in tests/serve/ sweep every
 * split point). A '\r' before the delimiter is stripped.
 *
 * When a single line grows past `maxLineBytes` (0 = unlimited) the
 * framer latches overflowed(): no further lines are delivered and
 * buffered input is discarded, so a peer streaming an unbounded
 * "line" cannot balloon daemon memory. The caller answers with a
 * structured `oversized` error and drops the connection.
 */
class LineFramer
{
  public:
    explicit LineFramer(std::size_t maxLineBytes = 0)
        : maxLineBytes_(maxLineBytes)
    {
    }

    /** Accept more raw bytes from the transport. */
    void feed(std::string_view bytes);

    /** Pop the next complete line into `line` (delimiter and any
     *  trailing '\r' stripped). False when no complete line is
     *  buffered or the framer has overflowed. */
    bool next(std::string &line);

    /** True once any line exceeded the byte budget (sticky). */
    bool overflowed() const { return overflowed_; }

    /** Bytes buffered awaiting a delimiter. */
    std::size_t buffered() const { return buffer_.size(); }

    /** Forget buffered input and clear the overflow latch. */
    void reset();

  private:
    std::string buffer_;
    std::size_t maxLineBytes_ = 0;
    bool overflowed_ = false;
};

// ---------------------------------------------------------------
// Transport.
// ---------------------------------------------------------------

/**
 * A parsed daemon address. Text that contains a ':' and no '/' is TCP
 * `host:port`, split at the last ':': the host is a dotted IPv4
 * address (empty = 127.0.0.1) and the port a decimal number in
 * [0, 65535] read by parseUnsigned. Any other text is a Unix-domain
 * socket path, so `serve.sock` is a path as much as `/tmp/x.sock`.
 */
struct Endpoint
{
    std::string text; ///< the address as given; the Unix path
    sockaddr_storage address{}; ///< AF_INET or AF_UNIX, filled in
    socklen_t length = 0;       ///< bytes of `address` in use

    bool tcp() const { return address.ss_family == AF_INET; }
    const sockaddr *sockAddress() const
    {
        return reinterpret_cast<const sockaddr *>(&address);
    }
};

/** Parse `text` into `out`. False with a message in `error` on a bad
 *  port, a bad host or a path too long for a socket address; the
 *  daemon and the client word each of these the same. */
bool parseEndpoint(const std::string &text, Endpoint &out,
                   std::string &error);

/**
 * Send all of `bytes` on `fd`, resuming short writes and EINTR, with
 * MSG_NOSIGNAL (a closed peer is an error, not a SIGPIPE). False on
 * failure, with errno naming the cause: EAGAIN or EWOULDBLOCK when a
 * send timeout expired.
 */
bool sendAll(int fd, std::string_view bytes);

/** Bound `fd`'s sends, and its receives too when `receive`, to `ms`
 *  milliseconds (0 = leave them blocking). A stalled peer then fails
 *  the call with EAGAIN instead of blocking forever. */
void setSocketTimeout(int fd, std::uint64_t ms, bool receive);

/**
 * Monotonic milliseconds, for queue ages, idle timeouts and the
 * client's retry budget. These values steer *whether* and *when* a
 * request is answered, never *what* the answer is: they must not
 * flow into a response or the journal (netchar-lint's taint pass
 * enforces that).
 */
std::uint64_t monotonicMillis();

} // namespace netchar::serve

#endif // NETCHAR_SERVE_PROTOCOL_HH
