#include "serve/shard.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "stats/textio.hh"

namespace netchar::serve
{

std::vector<std::size_t>
shardIndices(std::size_t n, unsigned shard, unsigned shards)
{
    std::vector<std::size_t> indices;
    if (shards == 0)
        return indices;
    for (std::size_t k = shard; k < n; k += shards)
        indices.push_back(k);
    return indices;
}

bool
parseShardSpec(const std::string &spec, unsigned &shard,
               unsigned &shards, std::string &error)
{
    const std::string_view text(spec);
    const auto slash = text.find('/');
    unsigned i = 0, n = 0;
    if (slash == std::string_view::npos ||
        !parseUnsigned(text.substr(0, slash), i) ||
        !parseUnsigned(text.substr(slash + 1), n)) {
        error = "shard spec '" + spec + "' must look like i/n";
        return false;
    }
    if (n == 0 || i >= n) {
        error = "shard spec '" + spec + "' needs 0 <= i < n (n >= 1)";
        return false;
    }
    shard = i;
    shards = n;
    return true;
}

std::string
sweepBodyJson(const SweepPartial &partial)
{
    std::ostringstream os;
    os << "{\"suite\":" << jsonString(partial.suite)
       << ",\"format\":" << jsonString(partial.format)
       << ",\"shard\":" << partial.shard
       << ",\"shards\":" << partial.shards
       << ",\"suiteSize\":" << partial.suiteSize
       << ",\"header\":" << jsonString(partial.header)
       << ",\"rows\":[";
    for (std::size_t i = 0; i < partial.rows.size(); ++i) {
        const SweepRow &row = partial.rows[i];
        if (i > 0)
            os << ',';
        os << "{\"index\":" << row.index
           << ",\"benchmark\":" << jsonString(row.benchmark)
           << ",\"text\":" << jsonString(row.text) << '}';
    }
    os << "],\"failures\":[";
    for (std::size_t i = 0; i < partial.failures.size(); ++i) {
        const RunFailure &f = partial.failures[i];
        if (i > 0)
            os << ',';
        os << "{\"index\":" << f.index
           << ",\"benchmark\":" << jsonString(f.benchmark)
           << ",\"attempt\":" << f.attempt
           << ",\"kind\":" << jsonString(f.kind)
           << ",\"seed\":" << f.seed
           << ",\"backoff_micros\":" << f.backoffMicros
           << ",\"error\":" << jsonString(f.error) << '}';
    }
    os << "]}";
    return os.str();
}

namespace
{

bool
wantString(const JsonValue &obj, const char *key, std::string &out,
           std::string &error)
{
    const JsonValue *v = obj.find(key);
    if (v == nullptr || !v->isString()) {
        error = std::string("sweep body: missing string '") + key +
                "'";
        return false;
    }
    out = v->string;
    return true;
}

/** A count under the request options' whole-number rule that also
 *  fits in T, so 4294967296 cannot truncate to 0 in a 32-bit field. */
template <typename T>
bool
wantCount(const JsonValue &obj, const char *key, T &out,
          std::string &error)
{
    const JsonValue *v = obj.find(key);
    std::uint64_t count = 0;
    if (v == nullptr || !wholeNumber(*v, count) ||
        count > std::numeric_limits<T>::max()) {
        error = std::string("sweep body: missing or bad count '") +
                key + "'";
        return false;
    }
    out = static_cast<T>(count);
    return true;
}

/**
 * A failure's seed: a whole, non-negative number up to 2^64. Seeds
 * are full 64-bit values (a retry's is a splitmix64 output), so they
 * are not held to wholeNumber's 1e18 bound. The JSON reader keeps
 * numbers as doubles, so a seed within 2^10 of the top arrives as
 * 2^64 and is read as the largest uint64.
 */
bool
wantSeed(const JsonValue &obj, std::uint64_t &out, std::string &error)
{
    constexpr double kTwoTo64 = 0x1p64;
    const JsonValue *v = obj.find("seed");
    if (v == nullptr || !v->isNumber() || v->number < 0.0 ||
        v->number != std::floor(v->number) || v->number > kTwoTo64) {
        error = "sweep body: missing or bad count 'seed'";
        return false;
    }
    out = v->number == kTwoTo64
              ? std::numeric_limits<std::uint64_t>::max()
              : static_cast<std::uint64_t>(v->number);
    return true;
}

} // namespace

bool
parseSweepBody(const JsonValue &body, SweepPartial &out,
               std::string &error)
{
    if (!body.isObject()) {
        error = "sweep body is not an object";
        return false;
    }
    if (!wantString(body, "suite", out.suite, error) ||
        !wantString(body, "format", out.format, error) ||
        !wantCount(body, "shard", out.shard, error) ||
        !wantCount(body, "shards", out.shards, error) ||
        !wantCount(body, "suiteSize", out.suiteSize, error) ||
        !wantString(body, "header", out.header, error))
        return false;

    const JsonValue *rows = body.find("rows");
    if (rows == nullptr || rows->kind != JsonValue::Kind::Array) {
        error = "sweep body: missing 'rows' array";
        return false;
    }
    for (const JsonValue &row : rows->array) {
        SweepRow parsed;
        if (!wantCount(row, "index", parsed.index, error) ||
            !wantString(row, "benchmark", parsed.benchmark, error) ||
            !wantString(row, "text", parsed.text, error))
            return false;
        out.rows.push_back(std::move(parsed));
    }

    const JsonValue *failures = body.find("failures");
    if (failures == nullptr ||
        failures->kind != JsonValue::Kind::Array) {
        error = "sweep body: missing 'failures' array";
        return false;
    }
    for (const JsonValue &fail : failures->array) {
        RunFailure parsed;
        if (!wantCount(fail, "index", parsed.index, error) ||
            !wantString(fail, "benchmark", parsed.benchmark,
                        error) ||
            !wantCount(fail, "attempt", parsed.attempt, error) ||
            !wantString(fail, "kind", parsed.kind, error) ||
            !wantSeed(fail, parsed.seed, error) ||
            !wantCount(fail, "backoff_micros", parsed.backoffMicros,
                       error) ||
            !wantString(fail, "error", parsed.error, error))
            return false;
        out.failures.push_back(std::move(parsed));
    }
    return true;
}

bool
mergeSweep(const std::vector<SweepPartial> &partials,
           std::string &merged, std::string &error)
{
    if (partials.empty()) {
        error = "merge: no partials";
        return false;
    }
    const SweepPartial &first = partials.front();
    if (partials.size() != first.shards) {
        error = "merge: have " + std::to_string(partials.size()) +
                " partial(s) for " + std::to_string(first.shards) +
                " shard(s)";
        return false;
    }
    std::vector<bool> seen_shard(first.shards, false);
    std::size_t rows = 0;
    for (const SweepPartial &p : partials) {
        if (p.suite != first.suite || p.format != first.format ||
            p.shards != first.shards ||
            p.suiteSize != first.suiteSize ||
            p.header != first.header) {
            error = "merge: partials disagree on suite/format/"
                    "shards/suiteSize/header (responses from "
                    "different sweeps?)";
            return false;
        }
        if (p.shard >= first.shards || seen_shard[p.shard]) {
            error = "merge: shard " + std::to_string(p.shard) +
                    " missing or duplicated";
            return false;
        }
        seen_shard[p.shard] = true;
        rows += p.rows.size();
    }
    // Checked before the index table is sized by it: a suiteSize of
    // 1e12 from a bad daemon must be a message, not a bad_alloc. With
    // as many rows as indices, distinct in-range rows cover them all.
    if (rows != first.suiteSize) {
        error = "merge: partials carry " + std::to_string(rows) +
                " row(s) for a suite of " +
                std::to_string(first.suiteSize);
        return false;
    }

    std::vector<const SweepRow *> by_index(first.suiteSize, nullptr);
    for (const SweepPartial &p : partials) {
        for (const SweepRow &row : p.rows) {
            if (row.index >= first.suiteSize ||
                by_index[row.index] != nullptr) {
                error = "merge: row index " +
                        std::to_string(row.index) +
                        " out of range or duplicated";
                return false;
            }
            by_index[row.index] = &row;
        }
    }

    std::ostringstream os;
    if (first.format == "csv") {
        os << first.header << '\n';
        for (const SweepRow *row : by_index)
            os << row->text << '\n';
    } else {
        os << '[';
        for (std::size_t i = 0; i < by_index.size(); ++i) {
            if (i > 0)
                os << ',';
            os << by_index[i]->text;
        }
        os << ']';
    }
    merged = os.str();
    return true;
}

SuiteRunStats
mergeLedgers(const std::vector<SweepPartial> &partials)
{
    SuiteRunStats stats;
    for (const SweepPartial &p : partials)
        stats.failures.insert(stats.failures.end(),
                              p.failures.begin(), p.failures.end());
    std::sort(stats.failures.begin(), stats.failures.end(),
              [](const RunFailure &a, const RunFailure &b) {
                  if (a.index != b.index)
                      return a.index < b.index;
                  return a.attempt < b.attempt;
              });
    return stats;
}

} // namespace netchar::serve
