#include "harness.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "stats/textio.hh"

namespace perfbench
{

double
steadySeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
sleepUntilSteady(double t)
{
    // Sleep to within 200 us, then yield: a plain sleep overshoots by
    // the timer slack, which an open loop would charge to every
    // request as generator lag.
    constexpr double kSpinSeconds = 200e-6;
    const double wait = t - steadySeconds();
    if (wait > kSpinSeconds)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(wait - kSpinSeconds));
    while (steadySeconds() < t)
        std::this_thread::yield();
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

HostSpeed::HostSpeed(std::function<double()> cpuNow)
    : cpuNow_(std::move(cpuNow)), keys_(kSortKeys)
{
    text_.reserve(std::size_t{1} << 20);
    // Untimed: the first pass pays for faulting in the kernels'
    // memory, which the later ones reuse.
    runReference();
}

void
HostSpeed::sample()
{
    const double t0 = cpuNow_();
    runReference();
    const double seconds = cpuNow_() - t0;
    seconds_.push_back(seconds);
    total_ += seconds;
}

void
HostSpeed::runReference()
{
    {
        std::map<std::string, std::uint32_t> words;
        SeededRng rng(0x5eed);
        for (std::uint32_t i = 0; i < 20000; ++i)
            words["key-" + std::to_string(rng.below(100000)) + "-suffix"] +=
                i;
        for (const auto &[word, count] : words)
            sink_ += word.size() + count;
    }
    {
        SeededRng rng(0x77);
        for (std::uint64_t &k : keys_)
            k = rng.next();
        std::sort(keys_.begin(), keys_.end());
        sink_ += keys_[keys_.size() / 2];
    }
    {
        text_.clear();
        SeededRng rng(0x31);
        char field[64];
        for (int i = 0; i < 20000; ++i) {
            std::snprintf(field, sizeof(field), "%.17g,%llu;",
                          rng.uniform() * 1e3,
                          static_cast<unsigned long long>(rng.below(1000000)));
            text_ += field;
        }
        double total = 0.0;
        for (const char *p = text_.c_str(); *p != '\0';) {
            char *end = nullptr;
            total += std::strtod(p, &end);
            total += static_cast<double>(std::strtoull(end + 1, &end, 10));
            p = end + 1;
        }
        sink_ += static_cast<std::uint64_t>(total);
    }
}

void
HostSpeed::addWork(double cpuSeconds)
{
    work_ += cpuSeconds;
    while (total_ < kShare * work_)
        sample();
}

double
HostSpeed::scale() const
{
    return seconds_.empty() ? 1.0 : kReferenceSeconds / median(seconds_);
}

std::uint64_t
SeededRng::next()
{
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double
SeededRng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
SeededRng::below(std::uint64_t bound)
{
    return bound == 0 ? 0 : next() % bound;
}

std::size_t
SeededRng::zipf(std::size_t n)
{
    // Inverse CDF over harmonic weights 1/(k+1); n is small (tens).
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k)
        total += 1.0 / static_cast<double>(k + 1);
    double u = uniform() * total;
    for (std::size_t k = 0; k < n; ++k) {
        u -= 1.0 / static_cast<double>(k + 1);
        if (u < 0.0)
            return k;
    }
    return n - 1;
}

std::size_t
samplesBeyond(std::size_t n, unsigned perMille)
{
    return n * (1000 - std::min(perMille, 1000u)) / 1000;
}

bool
supportsPercentile(std::size_t n, unsigned perMille)
{
    return n > 0 && samplesBeyond(n, perMille) >= kMinSamplesBeyond;
}

double
percentile(std::vector<double> samples, unsigned perMille)
{
    if (samples.empty())
        throw std::invalid_argument("percentile of no samples");
    std::sort(samples.begin(), samples.end());
    const double rank = static_cast<double>(perMille) / 1000.0 *
                        static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] +
           (samples[hi] - samples[lo]) * (rank - static_cast<double>(lo));
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 500);
}

OpenLoopResult
runOpenLoop(const std::vector<double> &dueTimes,
            const std::function<bool(std::size_t)> &send,
            const Clock &clock,
            const std::function<bool(std::size_t)> &verify)
{
    OpenLoopResult out;
    out.latency.reserve(dueTimes.size());
    out.lag.reserve(dueTimes.size());
    for (std::size_t i = 0; i < dueTimes.size(); ++i) {
        const double due = dueTimes[i];
        clock.sleepUntil(due);
        out.lag.push_back(std::max(0.0, clock.now() - due));
        const bool sent = send(i);
        const double latency = clock.now() - due;
        if (!sent || (verify && !verify(i))) {
            ++out.failed;
            continue;
        }
        out.latency.push_back(latency);
        out.completed.push_back(i);
    }
    return out;
}

Tracer::Tracer(Clock clock) : clock_(std::move(clock)) {}

int
Tracer::begin(std::string_view name, std::uint64_t op)
{
    Span s;
    s.name = std::string(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.op = op;
    s.start = clock_.now();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size() - 1);
    open_.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("span closed out of order");
    spans_[static_cast<std::size_t>(id)].end = clock_.now();
    open_.pop_back();
}

Scoped::Scoped(Tracer *tracer, std::string_view name, std::uint64_t op)
    : tracer_(tracer)
{
    if (tracer_ != nullptr)
        id_ = tracer_->begin(name, op);
}

Scoped::~Scoped()
{
    if (tracer_ != nullptr)
        tracer_->end(id_);
}

void
appendSpans(std::vector<Span> &into, const std::vector<Span> &more)
{
    const int base = static_cast<int>(into.size());
    for (Span s : more) {
        if (s.parent >= 0)
            s.parent += base;
        into.push_back(std::move(s));
    }
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].push_back(
                {s.start, s.end});

    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double runStart = 0.0, runEnd = 0.0;
        bool inRun = false;
        for (auto [a, b] : iv) {
            a = std::max(a, p.start);
            b = std::min(b, p.end);
            if (b <= a)
                continue;
            if (inRun && a <= runEnd) {
                runEnd = std::max(runEnd, b);
                continue;
            }
            if (inRun)
                covered += runEnd - runStart;
            runStart = a;
            runEnd = b;
            inRun = true;
        }
        if (inRun)
            covered += runEnd - runStart;
        self[i] = (p.end - p.start) - covered;
    }
    return self;
}

std::vector<std::pair<std::string, double>>
selfTimeByName(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimes(spans);
    std::vector<std::pair<std::string, double>> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto it = std::find_if(out.begin(), out.end(), [&](const auto &e) {
            return e.first == spans[i].name;
        });
        if (it == out.end())
            out.emplace_back(spans[i].name, self[i]);
        else
            it->second += self[i];
    }
    return out;
}

double
unattributedFraction(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimes(spans);
    double rootSelf = 0.0, rootTotal = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent >= 0)
            continue;
        rootSelf += self[i];
        rootTotal += spans[i].end - spans[i].start;
    }
    return rootTotal > 0.0 ? rootSelf / rootTotal : 0.0;
}

std::string
chromeTraceJson(const std::vector<Span> &spans)
{
    const double origin = spans.empty() ? 0.0 : spans.front().start;
    std::ostringstream os;
    os.precision(15);
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const std::string layer = s.name.substr(0, s.name.find('.'));
        os << (i ? "," : "") << "{\"name\":\""
           << netchar::jsonEscape(s.name) << "\",\"cat\":\""
           << netchar::jsonEscape(layer)
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.op
           << ",\"ts\":" << (s.start - origin) * 1e6
           << ",\"dur\":" << (s.end - s.start) * 1e6
           << ",\"args\":{\"parent\":" << s.parent << "}}";
    }
    os << "]}";
    return os.str();
}

void
Outcome::set(std::string_view name, std::string_view unit, double value)
{
    for (Metric &m : metrics) {
        if (m.name == name) {
            m.unit = std::string(unit);
            m.value = value;
            return;
        }
    }
    metrics.push_back({std::string(name), std::string(unit), value});
}

void
Outcome::fail(const std::string &why)
{
    correct = false;
    ++failed;
    notes.push_back("FAILED: " + why);
}

std::string
resultJson(const Outcome &outcome)
{
    std::ostringstream os;
    os << "{\"correct\":" << (outcome.correct ? "true" : "false")
       << ",\"attempted\":" << outcome.attempted
       << ",\"failed\":" << outcome.failed << ",\"metrics\":{";
    for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
        const Metric &m = outcome.metrics[i];
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", m.value);
        os << (i ? "," : "") << '"' << netchar::jsonEscape(m.name)
           << "\":{\"value\":" << value << ",\"unit\":\""
           << netchar::jsonEscape(m.unit) << "\"}";
    }
    os << "}}";
    return os.str();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench
