/**
 * @file
 * Deterministic sweep sharding and byte-identical merge.
 *
 * A daemon started with `--shard i/n` answers sweep requests only
 * for its slice of the suite: the round-robin indices {k : k mod n
 * == i} of the registry's profile list. Every shard renders its rows
 * with the same export code the single-process `netchar suite` path
 * uses and tags them with their *original* suite indices, so a
 * client holding all n partial responses can reassemble the full
 * CSV/JSON output — and the deterministic failure ledger — byte-
 * identically to the single-process run. The guarantee rests on
 * PR 1/PR 3 invariants: per-run results depend only on (profile,
 * machine, options, seed), and seed perturbation / fault decisions
 * key on benchmark *names*, never sweep positions.
 */

#ifndef NETCHAR_SERVE_SHARD_HH
#define NETCHAR_SERVE_SHARD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/characterize.hh"
#include "serve/protocol.hh"

namespace netchar::serve
{

/** Round-robin slice {k : k % shards == shard} of [0, n). */
std::vector<std::size_t> shardIndices(std::size_t n, unsigned shard,
                                      unsigned shards);

/**
 * Parse a `--shard i/n` spec. Returns false with a message in
 * `error` unless 0 <= i < n and n >= 1.
 */
[[nodiscard]]
bool parseShardSpec(const std::string &spec, unsigned &shard,
                    unsigned &shards, std::string &error);

/** One benchmark's rendered output inside a sweep partial. */
struct SweepRow
{
    /** Original index in the full suite profile list. */
    std::size_t index = 0;
    std::string benchmark;
    /** metricsCsv data row (csv) or runResultJson object (json),
     *  without any trailing newline. */
    std::string text;
};

/** One shard's sweep response body, parsed back from the wire. */
struct SweepPartial
{
    std::string suite;
    std::string format; ///< "csv" | "json"
    unsigned shard = 0;
    unsigned shards = 1;
    /** Total benchmarks in the full suite (merge coverage check). */
    std::size_t suiteSize = 0;
    /** metricsCsv header line (csv format only, no newline). */
    std::string header;
    std::vector<SweepRow> rows;
    /** Failed attempts with original suite indices. */
    std::vector<RunFailure> failures;
};

/**
 * Render one shard's sweep body (the `"body"` object of a sweep
 * response). Rows must already carry original suite indices.
 */
std::string sweepBodyJson(const SweepPartial &partial);

/**
 * Parse a sweep response body. Returns false with a message in
 * `error` on a malformed document.
 */
[[nodiscard]]
bool parseSweepBody(const JsonValue &body, SweepPartial &out,
                    std::string &error);

/**
 * Merge n shard partials into the full sweep output: exactly what
 * the single-process `netchar suite <suite> --format <f>` writes to
 * stdout (metricsCsv bytes for csv, suiteJson bytes for json).
 * Requires one partial per shard 0..n-1 (any order), identical
 * (suite, format, shards, suiteSize, header) across partials, as
 * many rows in all as suiteSize, and rows covering every suite index
 * exactly once. Returns false with a message in `error` otherwise
 * (never throws, whatever the partials hold).
 */
[[nodiscard]]
bool mergeSweep(const std::vector<SweepPartial> &partials,
                std::string &merged, std::string &error);

/**
 * Merge the partials' failure ledgers into a SuiteRunStats whose
 * failureLedgerCsv/Json bytes equal the single-process sweep's
 * (failures sorted by (index, attempt); the ledger format contains
 * no wall times or worker ids, so shard boundaries leave no trace).
 */
SuiteRunStats mergeLedgers(const std::vector<SweepPartial> &partials);

} // namespace netchar::serve

#endif // NETCHAR_SERVE_SHARD_HH
