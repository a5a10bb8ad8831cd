#include "serve/client.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "core/characterize.hh" // retryBackoffMicros
#include "stats/json.hh"          // parseJson (structured refusals)

namespace netchar::serve
{

namespace
{

/** A structured refusal the client reacts to (rather than treating
 *  the response as final). */
enum class Refusal { None, Overloaded, Draining };

Refusal
classifyRefusal(const std::string &response,
                std::uint64_t &retryAfterMs)
{
    JsonValue root;
    std::string parseError;
    if (!parseJson(response, root, parseError) || !root.isObject())
        return Refusal::None;
    const JsonValue *ok = root.find("ok");
    if (ok == nullptr || ok->kind != JsonValue::Kind::Bool ||
        ok->boolean)
        return Refusal::None;
    const JsonValue *code = root.find("code");
    if (code == nullptr || !code->isString())
        return Refusal::None;
    if (code->string == "overloaded") {
        const JsonValue *hint = root.find("retryAfterMs");
        std::uint64_t hintMs = 0;
        if (hint != nullptr && wholeNumber(*hint, hintMs))
            retryAfterMs = hintMs;
        return Refusal::Overloaded;
    }
    if (code->string == "draining")
        return Refusal::Draining;
    return Refusal::None;
}

} // namespace

Client::Client(ClientOptions options) : options_(std::move(options))
{
}

Client::~Client() { disconnect(); }

void
Client::disconnect()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    framer_.reset();
}

bool
Client::connectOnce(const Endpoint &endpoint, std::string &error)
{
    if (fd_ >= 0)
        return true;
    fd_ = ::socket(endpoint.address.ss_family, SOCK_STREAM, 0);
    if (fd_ < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    if (::connect(fd_, endpoint.sockAddress(), endpoint.length) != 0) {
        error = "connect " + endpoint.text + ": " + std::strerror(errno);
        disconnect();
        return false;
    }
    // A stalled peer surfaces as a retryable timeout instead of
    // blocking the client forever.
    setSocketTimeout(fd_, options_.ioTimeoutMs, true);
    return true;
}

bool
Client::roundTrip(const std::string &line, std::string &response,
                  std::string &error)
{
    std::string out = line;
    out.push_back('\n');
    if (!sendAll(fd_, out)) {
        const int cause = errno;
        error = cause == EAGAIN || cause == EWOULDBLOCK
                    ? "timeout: send stalled past " +
                          std::to_string(options_.ioTimeoutMs) + "ms"
                    : std::string("send: ") + std::strerror(cause);
        return false;
    }
    while (!framer_.next(response)) {
        char buf[4096];
        const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n == 0) {
            error = "connection closed before response";
            return false;
        }
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                error = "timeout: no response within " +
                        std::to_string(options_.ioTimeoutMs) + "ms";
                return false;
            }
            error = std::string("recv: ") + std::strerror(errno);
            return false;
        }
        framer_.feed({buf, static_cast<std::size_t>(n)});
    }
    return true;
}

bool
Client::request(const std::string &line, std::string &response,
                std::string &error)
{
    // A malformed address fails alone: no retry can mend it.
    Endpoint endpoint;
    if (!parseEndpoint(options_.address, endpoint, error))
        return false;
    const unsigned attempts =
        options_.maxAttempts < 1 ? 1 : options_.maxAttempts;
    const std::uint64_t startMs =
        options_.deadlineMs != 0 ? monotonicMillis() : 0;
    const auto deadlineExpired = [&]() {
        return options_.deadlineMs != 0 &&
               monotonicMillis() - startMs > options_.deadlineMs;
    };
    std::uint64_t overloadedHintMs = 0;
    for (unsigned attempt = 1; attempt <= attempts; ++attempt) {
        // An `overloaded` refusal's own hint replaces the default
        // backoff before this attempt.
        std::uint64_t delayMicros =
            retryBackoffMicros(options_.backoffBaseMicros, attempt);
        if (overloadedHintMs != 0) {
            delayMicros = overloadedHintMs * 1000;
            overloadedHintMs = 0;
        }
        if (delayMicros > 0)
            std::this_thread::sleep_for(
                std::chrono::microseconds(delayMicros));
        if (deadlineExpired()) {
            error = "deadline: request budget of " +
                    std::to_string(options_.deadlineMs) +
                    "ms exhausted" +
                    (error.empty() ? "" : " (last: " + error + ")");
            return false;
        }
        if (!connectOnce(endpoint, error))
            continue;
        if (!roundTrip(line, response, error)) {
            disconnect(); // a torn connection cannot carry a retry
            continue;
        }
        if (attempt < attempts) {
            // Honor structured refusals instead of surfacing them:
            // the request is idempotent, the server told us when
            // (overloaded) or where not (draining) to retry.
            const Refusal refusal =
                classifyRefusal(response, overloadedHintMs);
            if (refusal == Refusal::Overloaded) {
                if (overloadedHintMs == 0)
                    overloadedHintMs = 1;
                error = "server overloaded";
                continue;
            }
            if (refusal == Refusal::Draining) {
                disconnect();
                error = "server draining";
                continue;
            }
        }
        return true;
    }
    return false;
}

} // namespace netchar::serve
