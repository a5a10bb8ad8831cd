/**
 * @file
 * Client side of the serve protocol: one-line-out, one-line-back
 * requests with reconnect and bounded exponential backoff.
 *
 * Retrying a request is always safe: every verb is idempotent (run/
 * sweep/subset answers are pure functions of the request, served
 * through the content-addressed cache; ping/stats are reads), so a
 * request whose response was lost to a connection failure can simply
 * be sent again. The backoff schedule is the sweep runner's,
 * retryBackoffMicros (core/characterize.hh): before attempt k the
 * client sleeps base * 2^(k-2) microseconds, capped at 100 ms — host
 * time only, never visible in results.
 *
 * Three failure shapes are handled beyond a torn connection:
 *
 *  - a structured `overloaded` refusal is retried after the
 *    response's own retryAfterMs hint (same connection);
 *  - a structured `draining` refusal reconnects before retrying
 *    (the daemon is going away);
 *  - an overall deadline (ClientOptions::deadlineMs) bounds total
 *    elapsed time across all attempts, so a dead server fails with
 *    a named `deadline:` error instead of sleeping through the
 *    whole backoff ladder. Per-I/O read/write timeouts
 *    (ioTimeoutMs) turn a stalled peer into a retryable `timeout:`
 *    error.
 */

#ifndef NETCHAR_SERVE_CLIENT_HH
#define NETCHAR_SERVE_CLIENT_HH

#include <cstdint>
#include <string>

#include "serve/protocol.hh" // Endpoint, LineFramer

namespace netchar::serve
{

/** Connection and retry policy of a Client. */
struct ClientOptions
{
    /** Daemon address: `host:port` or a Unix socket path. */
    std::string address;
    /** Total attempts per request() (connect + round-trip). */
    unsigned maxAttempts = 5;
    /** Backoff base, microseconds (0 = retry immediately). */
    std::uint64_t backoffBaseMicros = 1000;
    /** Overall budget across all attempts, milliseconds (0 = none).
     *  On exhaustion request() fails with a `deadline:` error. */
    std::uint64_t deadlineMs = 0;
    /** Per-send/recv timeout, milliseconds (0 = block forever). A
     *  stalled peer yields a retryable `timeout:` error. */
    std::uint64_t ioTimeoutMs = 0;
};

/** Blocking NDJSON client for one daemon. */
class Client
{
  public:
    explicit Client(ClientOptions options);
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /**
     * Send one request line and wait for its one-line response
     * (returned without the newline). Reconnects and retries with
     * backoff up to maxAttempts; returns false with the last failure
     * in `error` once attempts are exhausted.
     */
    [[nodiscard]]
    bool request(const std::string &line, std::string &response,
                 std::string &error);

    const std::string &address() const { return options_.address; }

  private:
    [[nodiscard]]
    bool connectOnce(const Endpoint &endpoint, std::string &error);
    [[nodiscard]]
    bool roundTrip(const std::string &line, std::string &response,
                   std::string &error);
    void disconnect();

    ClientOptions options_;
    int fd_ = -1;
    /** Splits replies into lines; keeps bytes received past the
     *  last response. */
    LineFramer framer_;
};

} // namespace netchar::serve

#endif // NETCHAR_SERVE_CLIENT_HH
