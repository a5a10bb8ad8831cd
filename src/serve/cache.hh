/**
 * @file
 * Content-addressed result cache for the serve daemon.
 *
 * Keys are the 128-bit content hash (stats/hash.hh) of the canonical
 * key text (core/canonical.hh) of everything that determines a
 * result: profile, machine config, seed and run options, plus the
 * request shape (verb, suite, format, shard slice) for multi-run
 * verbs. Because every run is deterministic, a repeated identical
 * query can be answered from the cache with a byte-identical body —
 * the "repeat queries are free" half of characterization-as-a-
 * service.
 *
 * Eviction is LRU over both an entry-count and a byte budget, with
 * hit/miss/eviction counters exposed through the `stats` verb.
 * The cache lives in memory only. A persisting daemon keeps it in
 * the checksummed journal (serve/journal.hh): compaction walks the
 * entries LRU-first, and replay restores them in that order, so a
 * restart recovers both contents and recency. Keys hash the
 * canonical text, which carries the schema version, so entries
 * persisted before a canonicalization change are never looked up
 * again and age out of the LRU.
 *
 * Not thread-safe: the daemon's event loop is single-threaded and
 * owns the cache; parallelism lives below it, in the executor the
 * run batches fan out on.
 */

#ifndef NETCHAR_SERVE_CACHE_HH
#define NETCHAR_SERVE_CACHE_HH

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <vector>

namespace netchar::serve
{

/** Capacity budgets of a ResultCache. */
struct CacheConfig
{
    /** Maximum resident entries (0 = unlimited). */
    std::size_t maxEntries = 256;
    /** Maximum resident body bytes (0 = unlimited). */
    std::uint64_t maxBytes = 64ULL * 1024 * 1024;
};

/** Observability counters (the `stats` verb's cache section). */
struct CacheCounters
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t inserts = 0;
    std::size_t entries = 0;
    std::uint64_t bytes = 0;
};

/** LRU map from content-hash key to cached response body. */
class ResultCache
{
  public:
    explicit ResultCache(CacheConfig config = {});

    /**
     * Body cached under `key`, or nullptr on a miss. A hit bumps the
     * entry to most-recently-used and counts as a hit; a miss counts
     * as a miss. The pointer is invalidated by the next insert() —
     * copy before mutating the cache.
     */
    const std::string *lookup(const std::string &key);

    /**
     * Insert (or refresh) `key` -> `body`, then evict least-recently-
     * used entries until both budgets hold again. Inserting an
     * existing key replaces its body and bumps it to MRU.
     */
    void insert(const std::string &key, std::string body);

    /**
     * Replay an entry recovered from the journal: same placement
     * and eviction as insert(), but not counted as a fresh insert —
     * counters after a restart reflect only work done since.
     */
    void restore(const std::string &key, std::string body);

    const CacheCounters &counters() const { return counters_; }

    /** Keys most-recently-used first (eviction order is the
     *  reverse); for tests and the stats verb. */
    std::vector<std::string> keysByRecency() const;

    /**
     * Call `visit(key, body)` for every entry, least-recently-used
     * first, so restore()-ing the visited pairs in order rebuilds
     * the same recency. Unlike lookup() it neither bumps recency
     * nor counts; journal compaction walks the cache with it.
     */
    template <typename Visit>
    void forEachLruFirst(Visit &&visit) const
    {
        for (auto it = lru_.rbegin(); it != lru_.rend(); ++it)
            visit(it->key, it->body);
    }

  private:
    void evictOverBudget();

    struct Entry
    {
        std::string key;
        std::string body;
    };

    CacheConfig config_;
    CacheCounters counters_;
    std::list<Entry> lru_; ///< MRU at front.
    std::map<std::string, std::list<Entry>::iterator> index_;
};

} // namespace netchar::serve

#endif // NETCHAR_SERVE_CACHE_HH
