/**
 * @file
 * Append-only, crash-safe journal for the serve daemon's result
 * cache.
 *
 * The journal is the daemon's only persisted state. Every cache
 * insert is appended as one checksummed, length-prefixed record and
 * flushed before the response leaves. Compaction (compact()) rewrites
 * the file as one record per live cache entry, LRU-first, into a
 * temp file that rename() moves into place; the daemon compacts on
 * start, when the appended records outgrow its checkpoint budget and
 * on clean shutdown. Replaying the file restores both the entries
 * and their recency.
 *
 * On-disk layout (all ASCII framing, bodies raw):
 *
 *   netchar-journal/v1\n                      header
 *   R <keylen> <bodylen> <checksum32hex>\n    record header
 *   <key bytes><body bytes>\n                 record payload
 *   ...                                       more records
 *
 * where checksum32hex = contentHashHex(key + body) (stats/hash.hh).
 * Recovery (replay()) walks records front-to-back and stops at the
 * first torn or corrupt one — everything after a torn tail is
 * untrusted by construction — reporting exactly what it kept and
 * dropped. A truncated or corrupted journal is therefore always
 * recovered to a prefix of its record sequence (the entries of the
 * last compaction, then the inserts since): never a corrupt entry,
 * never a failed start. The kill-at-every-offset sweep in
 * tests/serve/robust_test.cc proves that property byte-by-byte.
 *
 * Not thread-safe: owned by the daemon's single-threaded event loop,
 * like the cache it protects.
 */

#ifndef NETCHAR_SERVE_JOURNAL_HH
#define NETCHAR_SERVE_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "serve/cache.hh"

namespace netchar::serve
{

/**
 * One record's serialized bytes: header line, key, body, trailing
 * newline. Pure function of (key, body) — this is the only place
 * journal bytes are produced, and it is a netchar-lint taint sink so
 * clock/RNG nondeterminism cannot reach the persisted format.
 */
std::string journalRecord(const std::string &key,
                          const std::string &body);

/** What replay() recovered and what it had to drop. */
struct JournalRecoveryReport
{
    /** Intact records replayed into the cache. */
    std::uint64_t recordsRecovered = 0;
    /** Records lost to the torn/corrupt tail (1 at most — replay
     *  stops at the first bad record). */
    std::uint64_t recordsDropped = 0;
    /** Bytes of journal discarded with the torn tail. */
    std::uint64_t bytesDropped = 0;
    /** Human-readable note on why replay stopped ("" = clean end). */
    std::string note;
};

/**
 * The daemon's append-side handle plus the static recovery path.
 *
 * Lifecycle: open() (append mode, creates the file with its header
 * if absent or empty), append() per cache insert (flushed before
 * returning, so an accepted response is never less durable than the
 * socket write that acknowledged it), compact() at each checkpoint,
 * close() on shutdown.
 */
class CacheJournal
{
  public:
    CacheJournal() = default;
    ~CacheJournal();

    CacheJournal(const CacheJournal &) = delete;
    CacheJournal &operator=(const CacheJournal &) = delete;

    /** Open `path` for appending (writing the header when the file
     *  is new or empty). False with a message in `error` on I/O
     *  failure. */
    [[nodiscard]]
    bool open(const std::string &path, std::string &error);

    /** Append one insert record and flush it to the OS. */
    [[nodiscard]]
    bool append(const std::string &key, const std::string &body,
                std::string &error);

    /**
     * Rewrite the journal as one record per entry of `cache`,
     * LRU-first: the records stream into `path() + ".tmp"`, which is
     * flushed and rename()d over the journal, and the append handle
     * reopens on the new file. A crash before the rename leaves the
     * old journal in place, so compaction never loses an entry the
     * file already held. Afterwards bytes() is back to the header
     * alone. False with a message in `error` on I/O failure; a
     * failed reopen leaves isOpen() false until the next compact().
     */
    [[nodiscard]]
    bool compact(const ResultCache &cache, std::string &error);

    /** The header plus the records appended since open() or the
     *  last compact() (0 when closed); the compaction trigger. */
    std::uint64_t bytes() const { return bytes_; }

    [[nodiscard]]
    bool isOpen() const { return file_ != nullptr; }
    const std::string &path() const { return path_; }

    void close();

    /**
     * Replay `path` into `entries` (append order preserved; later
     * records for the same key supersede earlier ones only by
     * arriving later — the caller re-inserts in order). Stops at the
     * first torn/corrupt record and describes the damage in
     * `report`. A missing file recovers zero entries cleanly; so
     * does a file with a foreign header (the whole file is treated
     * as an untrusted tail). The file is read one record at a
     * time, so memory beyond `entries` stays one record. Returns
     * false only on an I/O error reading an existing file.
     */
    [[nodiscard]]
    static bool
    replay(const std::string &path,
           std::vector<std::pair<std::string, std::string>> &entries,
           JournalRecoveryReport &report, std::string &error);

    /**
     * Chop `tailBytes` off the end of `path` — the deterministic
     * torn-write injector used by the kill-at-every-offset tests and
     * the `journal` wire-fault kind. Truncating past the start
     * leaves an empty file.
     */
    [[nodiscard]]
    static bool truncateTail(const std::string &path,
                             std::uint64_t tailBytes,
                             std::string &error);

  private:
    std::FILE *file_ = nullptr;
    std::string path_;
    std::uint64_t bytes_ = 0;
};

} // namespace netchar::serve

#endif // NETCHAR_SERVE_JOURNAL_HH
