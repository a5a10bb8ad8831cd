#include "serve/protocol.hh"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>

#include "runtime/gc.hh"
#include "sim/config.hh"
#include "stats/textio.hh"
#include "workloads/registry.hh"

namespace netchar::serve
{

// ---------------------------------------------------------------
// Request parsing.
// ---------------------------------------------------------------

std::string_view
verbName(Verb verb)
{
    switch (verb) {
    case Verb::Ping: return "ping";
    case Verb::Run: return "run";
    case Verb::Sweep: return "sweep";
    case Verb::Subset: return "subset";
    case Verb::Stats: return "stats";
    case Verb::Shutdown: return "shutdown";
    }
    return "ping";
}

bool
wholeNumber(const JsonValue &v, std::uint64_t &out)
{
    if (!v.isNumber() || v.number < 0.0 ||
        v.number != std::floor(v.number) || v.number > 1e18)
        return false;
    out = static_cast<std::uint64_t>(v.number);
    return true;
}

namespace
{

[[noreturn]] void
protocolError(const std::string &message)
{
    throw ProtocolError(message);
}

std::uint64_t
optionCount(const JsonValue &v, const std::string &key)
{
    std::uint64_t value = 0;
    if (!wholeNumber(v, value))
        protocolError("option '" + key +
                      "' expects a non-negative integer");
    return value;
}

double
finiteNumber(const JsonValue &v, const std::string &key)
{
    if (!v.isNumber())
        protocolError("option '" + key + "' expects a number");
    return v.number;
}

void
applyOption(RunOptions &options, const std::string &key,
            const JsonValue &v)
{
    if (key == "warmup") {
        options.warmupInstructions = optionCount(v, key);
    } else if (key == "measure") {
        options.measuredInstructions = optionCount(v, key);
    } else if (key == "cores") {
        const std::uint64_t cores = optionCount(v, key);
        if (cores == 0 || cores > 1024)
            protocolError("option 'cores' must be in [1,1024]");
        options.cores = static_cast<unsigned>(cores);
    } else if (key == "seed") {
        options.seed = optionCount(v, key);
    } else if (key == "jitHint") {
        if (v.kind != JsonValue::Kind::Bool)
            protocolError("option 'jitHint' expects true/false");
        options.jitHint = v.boolean;
    } else if (key == "gcMode") {
        if (v.string == "workstation")
            options.gcMode = rt::GcMode::Workstation;
        else if (v.string == "server")
            options.gcMode = rt::GcMode::Server;
        else
            protocolError("option 'gcMode' expects \"workstation\" "
                          "or \"server\"");
    } else if (key == "gcAssist") {
        if (v.string == "software")
            options.gcAssist = rt::GcAssist::Software;
        else if (v.string == "hardware")
            options.gcAssist = rt::GcAssist::Hardware;
        else
            protocolError("option 'gcAssist' expects \"software\" "
                          "or \"hardware\"");
    } else if (key == "maxHeap") {
        options.maxHeapBytes = optionCount(v, key);
    } else if (key == "allocScale") {
        const double scale = finiteNumber(v, key);
        if (scale < 0.0)
            protocolError("option 'allocScale' must be >= 0");
        options.allocScale = scale;
    } else if (key == "quantum") {
        options.quantum = optionCount(v, key);
    } else if (key == "runBudget") {
        options.runBudgetCycles = optionCount(v, key);
    } else {
        protocolError("unknown option '" + key + "'");
    }
}

} // namespace

Request
parseRequest(const std::string &line)
{
    JsonValue root;
    std::string error;
    if (!parseJson(line, root, error))
        protocolError("bad JSON: " + error);
    if (!root.isObject())
        protocolError("request must be a JSON object");

    Request request;
    const JsonValue *verb = root.find("verb");
    if (verb == nullptr || !verb->isString())
        protocolError("request needs a string 'verb'");
    if (verb->string == "ping")
        request.verb = Verb::Ping;
    else if (verb->string == "run")
        request.verb = Verb::Run;
    else if (verb->string == "sweep")
        request.verb = Verb::Sweep;
    else if (verb->string == "subset")
        request.verb = Verb::Subset;
    else if (verb->string == "stats")
        request.verb = Verb::Stats;
    else if (verb->string == "shutdown")
        request.verb = Verb::Shutdown;
    else
        protocolError("unknown verb '" + verb->string +
                      "' (valid: ping, run, sweep, subset, stats, "
                      "shutdown)");

    for (const auto &[key, value] : root.object) {
        if (key == "verb")
            continue;
        if (key == "benchmark") {
            if (!value.isString())
                protocolError("'benchmark' expects a string");
            request.benchmark = value.string;
        } else if (key == "suite") {
            if (!value.isString())
                protocolError("'suite' expects a string");
            request.suite = value.string;
        } else if (key == "machine") {
            if (!value.isString())
                protocolError("'machine' expects a string");
            request.machine = value.string;
        } else if (key == "format") {
            if (!value.isString())
                protocolError("'format' expects a string");
            request.format = value.string;
        } else if (key == "size") {
            const std::uint64_t size = optionCount(value, key);
            if (size == 0)
                protocolError("'size' must be >= 1");
            request.subsetSize = static_cast<std::size_t>(size);
        } else if (key == "deadlineMs") {
            request.deadlineMs = optionCount(value, key);
        } else if (key == "options") {
            if (!value.isObject())
                protocolError("'options' expects an object");
            for (const auto &[okey, ovalue] : value.object)
                applyOption(request.options, okey, ovalue);
        } else {
            protocolError("unknown request field '" + key + "'");
        }
    }

    if (!sim::findMachineModel(request.machine))
        protocolError("unknown machine '" + request.machine +
                      "' (valid: " + sim::machineKeyList() + ")");
    if (request.format != "csv" && request.format != "json")
        protocolError("unknown format '" + request.format +
                      "' (valid: csv, json)");
    if (request.verb == Verb::Run && request.benchmark.empty())
        protocolError("run needs a 'benchmark'");
    if ((request.verb == Verb::Sweep ||
         request.verb == Verb::Subset) &&
        request.suite.empty())
        protocolError(std::string(verbName(request.verb)) +
                      " needs a 'suite'");
    if (!request.suite.empty() && !wl::suiteForKey(request.suite))
        protocolError("unknown suite '" + request.suite +
                      "' (valid: " + wl::suiteKeyList() + ")");
    return request;
}

std::string
requestLine(const Request &request)
{
    std::ostringstream os;
    os << "{\"verb\":" << jsonString(std::string(
                              verbName(request.verb)));
    if (!request.benchmark.empty())
        os << ",\"benchmark\":" << jsonString(request.benchmark);
    if (!request.suite.empty())
        os << ",\"suite\":" << jsonString(request.suite);
    os << ",\"machine\":" << jsonString(request.machine);
    os << ",\"format\":" << jsonString(request.format);
    if (request.verb == Verb::Subset)
        os << ",\"size\":" << request.subsetSize;
    if (request.deadlineMs != 0)
        os << ",\"deadlineMs\":" << request.deadlineMs;
    const RunOptions &o = request.options;
    os << ",\"options\":{";
    os << "\"warmup\":" << o.warmupInstructions;
    os << ",\"measure\":" << o.measuredInstructions;
    os << ",\"cores\":" << o.cores;
    os << ",\"seed\":" << o.seed;
    if (o.jitHint)
        os << ",\"jitHint\":true";
    if (o.gcMode)
        os << ",\"gcMode\":"
           << (*o.gcMode == rt::GcMode::Server
                   ? "\"server\""
                   : "\"workstation\"");
    if (o.gcAssist)
        os << ",\"gcAssist\":"
           << (*o.gcAssist == rt::GcAssist::Hardware
                   ? "\"hardware\""
                   : "\"software\"");
    if (o.maxHeapBytes)
        os << ",\"maxHeap\":" << *o.maxHeapBytes;
    if (o.allocScale != 1.0) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", o.allocScale);
        os << ",\"allocScale\":" << buf;
    }
    if (o.quantum != RunOptions{}.quantum)
        os << ",\"quantum\":" << o.quantum;
    if (o.runBudgetCycles)
        os << ",\"runBudget\":" << o.runBudgetCycles;
    os << "}}";
    return os.str();
}

// ---------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------

std::string
jsonString(const std::string &raw)
{
    std::string quoted;
    quoted.reserve(raw.size() + 2);
    quoted.push_back('"');
    quoted += jsonEscape(raw);
    quoted.push_back('"');
    return quoted;
}

std::string
okResponse(const std::string &verb, const std::string &body)
{
    return "{\"ok\":true,\"verb\":" + jsonString(verb) +
           ",\"body\":" + body + "}";
}

std::string
okCachedResponse(const std::string &verb, bool hit,
                 const std::string &key, const std::string &body)
{
    return "{\"ok\":true,\"verb\":" + jsonString(verb) +
           ",\"cache\":" + (hit ? "\"hit\"" : "\"miss\"") +
           ",\"key\":" + jsonString(key) + ",\"body\":" + body + "}";
}

std::string
errorResponse(const std::string &message)
{
    return "{\"ok\":false,\"error\":" + jsonString(message) + "}";
}

std::string
errorCodeResponse(const std::string &code, const std::string &message,
                  std::uint64_t retryAfterMs)
{
    std::string response = "{\"ok\":false,\"error\":" +
                           jsonString(message) +
                           ",\"code\":" + jsonString(code);
    if (retryAfterMs != 0)
        response +=
            ",\"retryAfterMs\":" + std::to_string(retryAfterMs);
    response += "}";
    return response;
}

// ---------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------

void
LineFramer::feed(std::string_view bytes)
{
    if (overflowed_)
        return; // connection is being torn down; don't buffer more
    buffer_.append(bytes.data(), bytes.size());
    if (maxLineBytes_ != 0 && buffer_.find('\n') == std::string::npos &&
        buffer_.size() > maxLineBytes_) {
        overflowed_ = true;
        buffer_.clear();
    }
}

bool
LineFramer::next(std::string &line)
{
    if (overflowed_)
        return false;
    const std::size_t eol = buffer_.find('\n');
    if (eol == std::string::npos)
        return false;
    if (maxLineBytes_ != 0 && eol > maxLineBytes_) {
        overflowed_ = true;
        buffer_.clear();
        return false;
    }
    line.assign(buffer_, 0, eol);
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
    buffer_.erase(0, eol + 1);
    // An over-budget partial tail may have arrived in the same chunk
    // as this line; latch now rather than waiting for the next feed.
    if (maxLineBytes_ != 0 && buffer_.find('\n') == std::string::npos &&
        buffer_.size() > maxLineBytes_) {
        overflowed_ = true;
        buffer_.clear();
    }
    return true;
}

void
LineFramer::reset()
{
    buffer_.clear();
    overflowed_ = false;
}

// ---------------------------------------------------------------
// Transport.
// ---------------------------------------------------------------

bool
parseEndpoint(const std::string &text, Endpoint &out,
              std::string &error)
{
    out = {};
    out.text = text;
    const auto colon = text.rfind(':');
    if (colon == std::string::npos ||
        text.find('/') != std::string::npos) {
        auto &un = reinterpret_cast<sockaddr_un &>(out.address);
        if (text.size() >= sizeof(un.sun_path)) {
            error = "socket path '" + text + "' too long";
            return false;
        }
        un.sun_family = AF_UNIX;
        std::memcpy(un.sun_path, text.c_str(), text.size() + 1);
        out.length = sizeof(sockaddr_un);
        return true;
    }
    auto &in = reinterpret_cast<sockaddr_in &>(out.address);
    std::uint16_t port = 0;
    if (!parseUnsigned(std::string_view(text).substr(colon + 1), port)) {
        error = "bad port in address '" + text + "'";
        return false;
    }
    const std::string host =
        colon == 0 ? "127.0.0.1" : text.substr(0, colon);
    if (::inet_pton(AF_INET, host.c_str(), &in.sin_addr) != 1) {
        error = "bad host in address '" + text + "'";
        return false;
    }
    in.sin_family = AF_INET;
    in.sin_port = htons(port);
    out.length = sizeof(sockaddr_in);
    return true;
}

bool
sendAll(int fd, std::string_view bytes)
{
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n =
            ::send(fd, bytes.data() + sent, bytes.size() - sent,
                   MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

void
setSocketTimeout(int fd, std::uint64_t ms, bool receive)
{
    if (ms == 0)
        return;
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    if (receive)
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

std::uint64_t
monotonicMillis()
{
    // netchar-lint: allow(no-wallclock) -- admission, idle and retry timers only
    using Clock = std::chrono::steady_clock;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now().time_since_epoch())
            .count());
}

} // namespace netchar::serve
