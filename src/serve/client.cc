#include "serve/client.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/characterize.hh" // retryBackoffMicros
#include "stats/json.hh"          // parseJson (structured refusals)

namespace netchar::serve
{

namespace
{

/** Monotonic milliseconds for the overall request deadline. Host
 *  time steers retry policy only; it never reaches a result. */
std::uint64_t
monotonicMillis()
{
    // netchar-lint: allow(no-wallclock) -- client retry budget only
    using Clock = std::chrono::steady_clock;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now().time_since_epoch())
            .count());
}

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
        if (hint != nullptr && hint->isNumber() && hint->number > 0)
            retryAfterMs =
                static_cast<std::uint64_t>(hint->number);
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
    buffer_.clear();
}

bool
Client::connectOnce(std::string &error)
{
    if (fd_ >= 0)
        return true;
    const std::string &address = options_.address;
    const auto colon = address.rfind(':');
    const bool tcp = colon != std::string::npos &&
                     address.find('/') == std::string::npos;
    if (tcp) {
        std::string host = address.substr(0, colon);
        if (host.empty())
            host = "127.0.0.1";
        unsigned long port = 0;
        try {
            std::size_t used = 0;
            const std::string text = address.substr(colon + 1);
            port = std::stoul(text, &used);
            if (used != text.size() || port > 65535)
                throw std::invalid_argument(text);
        } catch (const std::exception &) {
            error = "bad port in address '" + address + "'";
            return false;
        }
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0) {
            error = std::string("socket: ") + std::strerror(errno);
            return false;
        }
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
            error = "bad host in address '" + address + "'";
            disconnect();
            return false;
        }
        if (::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            error = "connect " + address + ": " +
                    std::strerror(errno);
            disconnect();
            return false;
        }
    } else {
        sockaddr_un addr{};
        if (address.size() >= sizeof(addr.sun_path)) {
            error = "socket path '" + address + "' too long";
            return false;
        }
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0) {
            error = std::string("socket: ") + std::strerror(errno);
            return false;
        }
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, address.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            error = "connect " + address + ": " +
                    std::strerror(errno);
            disconnect();
            return false;
        }
    }
    if (options_.ioTimeoutMs != 0) {
        // A stalled peer surfaces as a retryable timeout instead of
        // blocking the client forever.
        timeval tv{};
        tv.tv_sec =
            static_cast<time_t>(options_.ioTimeoutMs / 1000);
        tv.tv_usec = static_cast<suseconds_t>(
            (options_.ioTimeoutMs % 1000) * 1000);
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
    return true;
}

bool
Client::roundTrip(const std::string &line, std::string &response,
                  std::string &error)
{
    std::string out = line;
    out.push_back('\n');
    std::size_t sent = 0;
    while (sent < out.size()) {
        const ssize_t n =
            ::send(fd_, out.data() + sent, out.size() - sent,
                   MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                error = "timeout: send stalled past " +
                        std::to_string(options_.ioTimeoutMs) + "ms";
                return false;
            }
            error = std::string("send: ") + std::strerror(errno);
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    while (true) {
        const auto nl = buffer_.find('\n');
        if (nl != std::string::npos) {
            response = buffer_.substr(0, nl);
            buffer_.erase(0, nl + 1);
            if (!response.empty() && response.back() == '\r')
                response.pop_back();
            return true;
        }
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
        buffer_.append(buf, static_cast<std::size_t>(n));
    }
}

bool
Client::request(const std::string &line, std::string &response,
                std::string &error)
{
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
        if (!connectOnce(error))
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
