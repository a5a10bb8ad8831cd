/**
 * @file
 * Robustness-layer tests for the serve daemon: adversarial NDJSON
 * framing (every split point, merged segments, oversized lines),
 * journal crash recovery (kill-at-every-offset prefix property),
 * admission control and deadline shedding, graceful drain on
 * SIGTERM, and seeded wire chaos — under which clients must still
 * reassemble byte-identical results, including the headline
 * shard-merge-equals-single-process guarantee per machine model —
 * and seeded byte mutations of every parser of outside bytes:
 * request lines, sweep bodies and the journal.
 */

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "../mutate.hh"
#include "core/executor.hh"
#include "core/export.hh"
#include "core/faults.hh"
#include "serve/cache.hh"
#include "serve/client.hh"
#include "serve/journal.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/shard.hh"
#include "workloads/registry.hh"

namespace netchar::serve
{
namespace
{

// -- small file helpers -------------------------------------------

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

// -- raw TCP client (no retry/backoff smarts — the tests below need
// -- to see shed responses the serve::Client would transparently
// -- retry past) --------------------------------------------------

int
rawConnect(const std::string &address)
{
    const auto colon = address.rfind(':');
    if (colon == std::string::npos)
        return -1;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    timeval tv{};
    tv.tv_sec = 10; // a hung test should fail, not wedge the suite
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(
        std::stoul(address.substr(colon + 1))));
    if (::inet_pton(AF_INET, address.substr(0, colon).c_str(),
                    &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
rawSend(int fd, const std::string &bytes)
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

std::vector<std::string>
rawReadLines(int fd, std::size_t count)
{
    std::vector<std::string> lines;
    std::string buffer;
    while (lines.size() < count) {
        const auto nl = buffer.find('\n');
        if (nl != std::string::npos) {
            lines.push_back(buffer.substr(0, nl));
            buffer.erase(0, nl + 1);
            continue;
        }
        char buf[4096];
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        buffer.append(buf, static_cast<std::size_t>(n));
    }
    return lines;
}

// -- adversarial framing ------------------------------------------

TEST(Framer, EverySplitPointYieldsIdenticalLines)
{
    const std::string payload =
        "{\"verb\":\"ping\"}\n"
        "{\"verb\":\"stats\"}\r\n"
        "{\"verb\":\"run\",\"benchmark\":\"SeekUnroll\"}\n";
    const std::vector<std::string> expected = {
        "{\"verb\":\"ping\"}", "{\"verb\":\"stats\"}",
        "{\"verb\":\"run\",\"benchmark\":\"SeekUnroll\"}"};
    for (std::size_t cut = 0; cut <= payload.size(); ++cut) {
        LineFramer framer;
        framer.feed({payload.data(), cut});
        framer.feed({payload.data() + cut, payload.size() - cut});
        std::vector<std::string> lines;
        std::string line;
        while (framer.next(line))
            lines.push_back(line);
        EXPECT_EQ(lines, expected) << "split at byte " << cut;
        EXPECT_FALSE(framer.overflowed());
        EXPECT_EQ(framer.buffered(), 0u);
    }
}

TEST(Framer, ByteAtATimeDelivery)
{
    const std::string payload = "alpha\nbeta\n";
    LineFramer framer;
    std::vector<std::string> lines;
    std::string line;
    for (const char byte : payload) {
        framer.feed({&byte, 1});
        while (framer.next(line))
            lines.push_back(line);
    }
    EXPECT_EQ(lines, (std::vector<std::string>{"alpha", "beta"}));
}

TEST(Framer, MergedRequestsInOneSegment)
{
    // Three requests plus a partial fourth arrive as one TCP
    // segment; the partial completes in a later segment.
    LineFramer framer;
    framer.feed("one\ntwo\nthree\nfou");
    std::vector<std::string> lines;
    std::string line;
    while (framer.next(line))
        lines.push_back(line);
    EXPECT_EQ(lines,
              (std::vector<std::string>{"one", "two", "three"}));
    EXPECT_EQ(framer.buffered(), 3u);
    framer.feed("r\n");
    ASSERT_TRUE(framer.next(line));
    EXPECT_EQ(line, "four");
}

TEST(Framer, OversizedLineLatchesAndResetRecovers)
{
    LineFramer framer(8);
    framer.feed("ok\n");
    std::string line;
    ASSERT_TRUE(framer.next(line));
    EXPECT_EQ(line, "ok");

    // An unbounded "line" with no delimiter must not buffer forever.
    framer.feed(std::string(9, 'x'));
    EXPECT_TRUE(framer.overflowed());
    EXPECT_EQ(framer.buffered(), 0u); // memory released, not held
    framer.feed("more\n");            // ignored while latched
    EXPECT_FALSE(framer.next(line));

    framer.reset();
    EXPECT_FALSE(framer.overflowed());
    framer.feed("fine\n");
    ASSERT_TRUE(framer.next(line));
    EXPECT_EQ(line, "fine");

    // A complete-but-over-budget line latches on next().
    LineFramer bounded(4);
    bounded.feed("toolong\n");
    EXPECT_FALSE(bounded.next(line));
    EXPECT_TRUE(bounded.overflowed());
}

TEST(Framer, OversizedTailInSameChunkAsCompleteLine)
{
    LineFramer framer(8);
    framer.feed("ok\n" + std::string(20, 'y'));
    std::string line;
    ASSERT_TRUE(framer.next(line)); // the good line still delivers
    EXPECT_EQ(line, "ok");
    EXPECT_TRUE(framer.overflowed());
    EXPECT_EQ(framer.buffered(), 0u);
}

TEST(Protocol, ErrorCodeResponseShape)
{
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(errorCodeResponse("overloaded", "busy", 25),
                          doc, err))
        << err;
    EXPECT_FALSE(doc.find("ok")->boolean);
    EXPECT_EQ(doc.find("code")->string, "overloaded");
    EXPECT_EQ(doc.find("error")->string, "busy");
    ASSERT_NE(doc.find("retryAfterMs"), nullptr);
    EXPECT_EQ(doc.find("retryAfterMs")->number, 25.0);

    // The hint is omitted, not zero, when there is none.
    ASSERT_TRUE(parseJson(errorCodeResponse("draining", "bye"), doc,
                          err))
        << err;
    EXPECT_EQ(doc.find("retryAfterMs"), nullptr);
}

// -- journal ------------------------------------------------------

TEST(Journal, AppendReplayRoundTrip)
{
    const std::string path =
        testing::TempDir() + "netchar_journal_roundtrip.journal";
    std::remove(path.c_str());
    std::string error;
    CacheJournal journal;
    ASSERT_TRUE(journal.open(path, error)) << error;
    ASSERT_TRUE(journal.append("k1", "body with\nnewlines", error))
        << error;
    ASSERT_TRUE(journal.append("k2", "", error)) << error;
    ASSERT_TRUE(journal.append("k1", "superseding body", error))
        << error;
    journal.close();

    std::vector<std::pair<std::string, std::string>> entries;
    JournalRecoveryReport report;
    ASSERT_TRUE(CacheJournal::replay(path, entries, report, error))
        << error;
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0],
              (std::pair<std::string, std::string>{
                  "k1", "body with\nnewlines"}));
    EXPECT_EQ(entries[1].first, "k2");
    EXPECT_EQ(entries[1].second, "");
    EXPECT_EQ(entries[2].second, "superseding body");
    EXPECT_EQ(report.recordsRecovered, 3u);
    EXPECT_EQ(report.recordsDropped, 0u);
    EXPECT_EQ(report.bytesDropped, 0u);
    EXPECT_EQ(report.note, "");
    std::remove(path.c_str());
}

TEST(Journal, ReplayOfMissingFileIsClean)
{
    std::vector<std::pair<std::string, std::string>> entries;
    JournalRecoveryReport report;
    std::string error;
    EXPECT_TRUE(CacheJournal::replay(
        testing::TempDir() + "netchar_journal_never_written.journal",
        entries, report, error))
        << error;
    EXPECT_TRUE(entries.empty());
    EXPECT_EQ(report.note, "");
}

TEST(Journal, ForeignHeaderRecoversEmptyNotFailedStart)
{
    const std::string path =
        testing::TempDir() + "netchar_journal_foreign.journal";
    writeFile(path, "some other format entirely\nR 1 1 junk\n");
    std::vector<std::pair<std::string, std::string>> entries;
    JournalRecoveryReport report;
    std::string error;
    EXPECT_TRUE(CacheJournal::replay(path, entries, report, error))
        << error;
    EXPECT_TRUE(entries.empty());
    EXPECT_NE(report.note.find("header"), std::string::npos);
    EXPECT_GT(report.bytesDropped, 0u);
    std::remove(path.c_str());
}

TEST(Journal, ChecksumMismatchStopsAtPrefix)
{
    const std::string path =
        testing::TempDir() + "netchar_journal_corrupt.journal";
    std::remove(path.c_str());
    std::string error;
    std::vector<std::uint64_t> boundaries;
    {
        CacheJournal journal;
        ASSERT_TRUE(journal.open(path, error)) << error;
        boundaries.push_back(journal.bytes());
        ASSERT_TRUE(journal.append("alpha", "first!", error))
            << error;
        boundaries.push_back(journal.bytes());
        ASSERT_TRUE(journal.append("bravo", "second", error))
            << error;
        boundaries.push_back(journal.bytes());
        ASSERT_TRUE(journal.append("charlie", "third!", error))
            << error;
    }
    // Flip the last body byte of record 2: its checksum no longer
    // matches, so replay must keep record 1 and drop the rest.
    std::string bytes = readFile(path);
    bytes[boundaries[2] - 2] ^= 0x01;
    writeFile(path, bytes);

    std::vector<std::pair<std::string, std::string>> entries;
    JournalRecoveryReport report;
    ASSERT_TRUE(CacheJournal::replay(path, entries, report, error))
        << error;
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].first, "alpha");
    EXPECT_EQ(report.recordsRecovered, 1u);
    EXPECT_EQ(report.recordsDropped, 1u);
    EXPECT_EQ(report.bytesDropped, bytes.size() - boundaries[1]);
    EXPECT_NE(report.note.find("checksum"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Journal, WrappingLengthsAreATornTailNotAThrow)
{
    // A corrupt record header whose two lengths sum past 2^64: the
    // bounds check must not wrap, so replay keeps the prefix and
    // drops the record instead of reading out of range.
    const std::string path =
        testing::TempDir() + "netchar_journal_wrap.journal";
    std::remove(path.c_str());
    std::string error;
    std::uint64_t intact = 0;
    {
        CacheJournal journal;
        ASSERT_TRUE(journal.open(path, error)) << error;
        ASSERT_TRUE(journal.append("alpha", "first!", error)) << error;
        intact = journal.bytes();
    }
    writeFile(path, readFile(path) +
                        "R 9223372036854775808 9223372036854775808 " +
                        std::string(32, 'f') + "\nxy\n");
    std::vector<std::pair<std::string, std::string>> entries;
    JournalRecoveryReport report;
    ASSERT_TRUE(CacheJournal::replay(path, entries, report, error))
        << error;
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].first, "alpha");
    EXPECT_EQ(report.recordsDropped, 1u);
    EXPECT_EQ(report.bytesDropped, readFile(path).size() - intact);
    EXPECT_NE(report.note.find("torn"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Journal, KillAtEveryOffsetRecoversAPrefix)
{
    // The crash-safety property, proven byte-by-byte: truncate the
    // journal at EVERY offset and replay. Recovery must always
    // succeed and always yield an exact prefix of the insert
    // sequence — never a corrupt entry, never an error.
    const std::string path =
        testing::TempDir() + "netchar_journal_killsweep.journal";
    const std::string torn =
        testing::TempDir() + "netchar_journal_killsweep_torn.journal";
    std::remove(path.c_str());
    const std::vector<std::pair<std::string, std::string>> inserted =
        {{"k-one", "body one\nwith newline"},
         {"k-two", ""},
         {"k-three", "body three"}};
    std::string error;
    std::vector<std::uint64_t> boundaries;
    {
        CacheJournal journal;
        ASSERT_TRUE(journal.open(path, error)) << error;
        boundaries.push_back(journal.bytes()); // bare header
        for (const auto &[key, body] : inserted) {
            ASSERT_TRUE(journal.append(key, body, error)) << error;
            boundaries.push_back(journal.bytes());
        }
    }
    const std::string bytes = readFile(path);
    ASSERT_EQ(bytes.size(), boundaries.back());

    for (std::size_t keep = 0; keep <= bytes.size(); ++keep) {
        writeFile(torn, bytes.substr(0, keep));
        std::vector<std::pair<std::string, std::string>> entries;
        JournalRecoveryReport report;
        ASSERT_TRUE(
            CacheJournal::replay(torn, entries, report, error))
            << "offset " << keep << ": " << error;

        // Expected prefix length: complete records fully below the
        // cut. A cut inside the header recovers nothing.
        std::size_t expected = 0;
        while (expected < inserted.size() &&
               boundaries[expected + 1] <= keep)
            ++expected;
        if (keep < boundaries[0])
            expected = 0;
        ASSERT_EQ(entries.size(), expected) << "offset " << keep;
        for (std::size_t i = 0; i < expected; ++i) {
            EXPECT_EQ(entries[i], inserted[i])
                << "offset " << keep << " entry " << i;
        }
        EXPECT_EQ(report.recordsRecovered, expected)
            << "offset " << keep;
        const bool cleanBoundary =
            keep == 0 ||
            (keep >= boundaries[0] &&
             boundaries[expected] == keep);
        if (cleanBoundary) {
            EXPECT_EQ(report.recordsDropped, 0u)
                << "offset " << keep;
            EXPECT_EQ(report.bytesDropped, 0u) << "offset " << keep;
            EXPECT_EQ(report.note, "") << "offset " << keep;
        } else {
            EXPECT_GT(report.bytesDropped, 0u) << "offset " << keep;
            EXPECT_NE(report.note, "") << "offset " << keep;
        }
    }
    std::remove(path.c_str());
    std::remove(torn.c_str());
}

TEST(Journal, TruncateTailAndReset)
{
    const std::string path =
        testing::TempDir() + "netchar_journal_truncate.journal";
    writeFile(path, "abcdef");
    std::string error;
    ASSERT_TRUE(CacheJournal::truncateTail(path, 2, error)) << error;
    EXPECT_EQ(readFile(path), "abcd");
    ASSERT_TRUE(CacheJournal::truncateTail(path, 100, error))
        << error;
    EXPECT_EQ(readFile(path), "");
    std::remove(path.c_str());

    // Compacting an empty cache returns an appended journal to a
    // bare, replayable header.
    CacheJournal journal;
    ASSERT_TRUE(journal.open(path, error)) << error;
    const std::uint64_t headerBytes = journal.bytes();
    ASSERT_TRUE(journal.append("k", "v", error)) << error;
    EXPECT_GT(journal.bytes(), headerBytes);
    ASSERT_TRUE(journal.compact(ResultCache{}, error)) << error;
    EXPECT_EQ(journal.bytes(), headerBytes);
    journal.close();
    std::vector<std::pair<std::string, std::string>> entries;
    JournalRecoveryReport report;
    ASSERT_TRUE(CacheJournal::replay(path, entries, report, error))
        << error;
    EXPECT_TRUE(entries.empty());
    EXPECT_EQ(report.note, "");
    std::remove(path.c_str());
}

// -- cache persistence --------------------------------------------

TEST(Cache, SaveIsAtomicAndLeavesNoTempFile)
{
    const std::string path =
        testing::TempDir() + "netchar_cache_atomic.journal";
    std::remove(path.c_str());
    ResultCache cache;
    cache.insert("k", "v");
    std::string error;
    CacheJournal journal;
    ASSERT_TRUE(journal.open(path, error)) << error;
    ASSERT_TRUE(journal.append("k", "v", error)) << error;
    ASSERT_TRUE(journal.compact(cache, error)) << error;
    // rename() already happened: no half-written temp beside the
    // journal.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
    // The append handle moved to the compacted file.
    ASSERT_TRUE(journal.append("k2", "v2", error)) << error;
    journal.close();
    std::vector<std::pair<std::string, std::string>> entries;
    JournalRecoveryReport report;
    ASSERT_TRUE(CacheJournal::replay(path, entries, report, error))
        << error;
    ResultCache loaded;
    for (auto &[key, body] : entries)
        loaded.restore(key, std::move(body));
    EXPECT_EQ(report.recordsRecovered, 2u);
    ASSERT_NE(loaded.lookup("k"), nullptr);
    EXPECT_EQ(*loaded.lookup("k"), "v");
    ASSERT_NE(loaded.lookup("k2"), nullptr);
    std::remove(path.c_str());
}

TEST(Cache, RestoreDoesNotCountAsFreshInsert)
{
    ResultCache cache;
    cache.restore("a", "1");
    cache.restore("b", "2");
    EXPECT_EQ(cache.counters().inserts, 0u);
    EXPECT_EQ(cache.counters().entries, 2u);
    ASSERT_NE(cache.lookup("b"), nullptr);
    EXPECT_EQ(*cache.lookup("b"), "2");
}

// -- server-level crash recovery ----------------------------------

TEST(Recovery, ServerReplaysJournalAndSkipsTornTail)
{
    const std::string persist =
        testing::TempDir() + "netchar_recovery_persist.bin";
    const std::string journal = persist + ".journal";
    std::remove(persist.c_str());
    std::remove(journal.c_str());
    const std::string line1 =
        R"({"verb":"run","benchmark":"SeekUnroll",)"
        R"("options":{"warmup":20000,"measure":40000}})";
    const std::string line2 =
        R"({"verb":"run","benchmark":"SeekUnroll",)"
        R"("options":{"warmup":20000,"measure":40000,"seed":2}})";

    std::string body1;
    {
        // "Crash": the daemon inserts two results (each journaled)
        // and is destroyed without any clean-shutdown checkpoint.
        ServerOptions sopts;
        sopts.listen = "127.0.0.1:0";
        sopts.persistPath = persist;
        Server server(sopts);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;
        const std::string r1 = server.handleLine(line1);
        body1 = r1.substr(r1.find(",\"body\":"));
        server.handleLine(line2);
    }
    // Torn write: the tail of the second record is lost.
    std::string error;
    ASSERT_TRUE(CacheJournal::truncateTail(journal, 3, error))
        << error;

    ServerOptions sopts;
    sopts.listen = "127.0.0.1:0";
    sopts.persistPath = persist;
    Server reborn(sopts);
    ASSERT_TRUE(reborn.start(error)) << error;
    EXPECT_EQ(reborn.recovery().recordsRecovered, 1u);
    EXPECT_EQ(reborn.recovery().recordsDropped, 1u);
    EXPECT_GT(reborn.recovery().bytesDropped, 0u);

    // The surviving record serves a byte-identical hit; the torn one
    // is recomputed on demand — a crash costs warmth, not answers.
    const std::string hit = reborn.handleLine(line1);
    JsonValue doc;
    ASSERT_TRUE(parseJson(hit, doc, error)) << error;
    EXPECT_EQ(doc.find("cache")->string, "hit");
    EXPECT_EQ(hit.substr(hit.find(",\"body\":")), body1);
    const std::string miss = reborn.handleLine(line2);
    ASSERT_TRUE(parseJson(miss, doc, error)) << error;
    EXPECT_EQ(doc.find("cache")->string, "miss");
    std::remove(persist.c_str());
    std::remove(journal.c_str());
}

TEST(Recovery, ServerStartsAtEveryJournalTruncationOffset)
{
    // The kill-at-every-offset sweep at the daemon level: whatever
    // prefix of the journal survives a crash, start() must succeed
    // and load exactly the surviving prefix of inserts.
    const std::string persist =
        testing::TempDir() + "netchar_recovery_sweep.bin";
    const std::string journalPath = persist + ".journal";
    std::remove(persist.c_str());
    std::remove(journalPath.c_str());
    std::string error;
    std::vector<std::uint64_t> boundaries;
    {
        CacheJournal journal;
        ASSERT_TRUE(journal.open(journalPath, error)) << error;
        boundaries.push_back(journal.bytes());
        ASSERT_TRUE(journal.append("key-one", "body-one", error))
            << error;
        boundaries.push_back(journal.bytes());
        ASSERT_TRUE(journal.append("key-two", "body-two", error))
            << error;
        boundaries.push_back(journal.bytes());
    }
    const std::string bytes = readFile(journalPath);

    for (std::size_t keep = 0; keep <= bytes.size(); ++keep) {
        // Each iteration recreates the post-crash disk state:
        // no snapshot (or a stale one from the previous loop would
        // leak entries forward), torn journal.
        std::remove(persist.c_str());
        writeFile(journalPath, bytes.substr(0, keep));

        ServerOptions sopts;
        sopts.listen = "127.0.0.1:0";
        sopts.persistPath = persist;
        Server server(sopts);
        ASSERT_TRUE(server.start(error))
            << "offset " << keep << ": " << error;

        std::size_t expected = 0;
        while (expected + 1 < boundaries.size() &&
               boundaries[expected + 1] <= keep)
            ++expected;
        if (keep < boundaries[0])
            expected = 0;
        EXPECT_EQ(server.cacheCounters().entries, expected)
            << "offset " << keep;
        EXPECT_EQ(server.recovery().recordsRecovered, expected)
            << "offset " << keep;
    }
    std::remove(persist.c_str());
    std::remove(journalPath.c_str());
}

/** Answer one `run` line, stripped to the body bytes the cache
 *  stores (the response ends `,"body":BODY}`). */
std::string
runBody(Server &server, const std::string &line, std::string &cache)
{
    const std::string response = server.handleLine(line);
    JsonValue doc;
    std::string error;
    if (!parseJson(response, doc, error) || doc.find("cache") == nullptr)
        return "unparsable response: " + response;
    cache = doc.find("cache")->string;
    const std::size_t at = response.find(",\"body\":") + 8;
    return response.substr(at, response.size() - at - 1);
}

/** Clean shutdown without a socket: drain, then one serve() tick
 *  that ends in the shutdown checkpoint. */
void
shutDownCleanly(Server &server)
{
    server.beginDrain();
    EXPECT_EQ(server.serve(), 0);
}

TEST(Recovery, CorruptPersistedBodyIsRecomputedNotServed)
{
    // A result persisted by a clean shutdown, then one byte of its
    // stored body flipped on disk: the restarted daemon must answer
    // with the correct body, recomputed as a miss, never the
    // corrupted bytes.
    const std::string persist =
        testing::TempDir() + "netchar_recovery_bitflip.bin";
    const std::string journal = persist + ".journal";
    std::remove(persist.c_str());
    std::remove(journal.c_str());
    const std::string line =
        R"({"verb":"run","benchmark":"SeekUnroll",)"
        R"("options":{"warmup":20000,"measure":40000}})";
    ServerOptions sopts;
    sopts.listen = "127.0.0.1:0";
    sopts.persistPath = persist;

    std::string body;
    {
        Server server(sopts);
        std::string error, cache;
        ASSERT_TRUE(server.start(error)) << error;
        body = runBody(server, line, cache);
        EXPECT_EQ(cache, "miss");
        shutDownCleanly(server);
    }

    // Flip one digit in the middle of the stored body, in whichever
    // persisted file holds it.
    int flipped = 0;
    for (const std::string &path : {persist, journal}) {
        std::string bytes = readFile(path);
        const std::size_t at = bytes.find(body);
        if (bytes.empty() || at == std::string::npos)
            continue;
        std::size_t pos = at + body.size() / 2;
        while (pos < at + body.size() &&
               (bytes[pos] < '0' || bytes[pos] > '9'))
            ++pos;
        ASSERT_LT(pos, at + body.size());
        bytes[pos] = bytes[pos] == '9' ? '0' : bytes[pos] + 1;
        writeFile(path, bytes);
        ++flipped;
    }
    ASSERT_EQ(flipped, 1);

    Server reborn(sopts);
    std::string error, cache;
    ASSERT_TRUE(reborn.start(error)) << error;
    EXPECT_EQ(runBody(reborn, line, cache), body);
    EXPECT_EQ(cache, "miss");
    std::remove(persist.c_str());
    std::remove(journal.c_str());
}

TEST(Recovery, CheckpointScriptKeepsStatsAndCount)
{
    // A fixed request script through one daemon lifetime with a
    // small checkpoint budget and a small cache: misses, hits,
    // evictions, re-inserts of evicted keys and over-budget
    // compactions.
    // The stats body is pinned byte for byte.
    const std::string persist =
        testing::TempDir() + "netchar_recovery_script.bin";
    const std::string journal = persist + ".journal";
    std::remove(persist.c_str());
    std::remove(journal.c_str());
    const auto runLine = [](int seed) {
        return std::string(
                   R"({"verb":"run","benchmark":"SeekUnroll",)"
                   R"("options":{"warmup":20000,"measure":40000,)"
                   R"("seed":)") +
               std::to_string(seed) + "}}";
    };
    ServerOptions sopts;
    sopts.listen = "127.0.0.1:0";
    sopts.persistPath = persist;
    sopts.cache.maxEntries = 3;
    sopts.checkpointBytes = 2500;

    {
        Server server(sopts);
        std::string error, cache;
        ASSERT_TRUE(server.start(error)) << error;
        for (const int seed : {1, 2, 1, 3, 4, 2, 5, 5, 6, 4})
            runBody(server, runLine(seed), cache);
        // Pinned: the trigger and the counts depend on the request
        // script alone, not on what a compaction writes.
        EXPECT_EQ(server.counters().checkpoints, 2u);
        EXPECT_EQ(
            server.handleLine(R"({"verb":"stats"})"),
            R"({"ok":true,"verb":"stats","body":{"serving":{)"
            R"("requests":11,"errors":0,"connections":0,"shard":0,)"
            R"("shards":1,"jobs":1},"admission":{"overloaded":0,)"
            R"("deadlineExpired":0,"oversized":0,"drained":0,)"
            R"("idleEvicted":0,"wireFaults":0},"journal":{)"
            R"("recovered":0,"dropped":0,"bytesDropped":0,)"
            R"("checkpoints":2,"bytes":2042},"cache":{"hits":2,)"
            R"("misses":8,"evictions":5,"inserts":8,"entries":3,)"
            R"("bytes":2817}}})");
        shutDownCleanly(server);
        EXPECT_EQ(server.counters().checkpoints, 3u);
    }

    // After a restart the compacted records are what replay
    // recovers: every live entry, each a hit.
    Server reborn(sopts);
    std::string error, cache;
    ASSERT_TRUE(reborn.start(error)) << error;
    EXPECT_EQ(reborn.recovery().recordsRecovered, 3u);
    EXPECT_EQ(reborn.recovery().recordsDropped, 0u);
    EXPECT_EQ(reborn.cacheCounters().entries, 3u);
    for (const int seed : {4, 5, 6}) {
        runBody(reborn, runLine(seed), cache);
        EXPECT_EQ(cache, "hit") << "seed " << seed;
    }
    std::remove(persist.c_str());
    std::remove(journal.c_str());
}

// -- admission control --------------------------------------------

TEST(Admission, RequestBudgetShedsWithRetryHint)
{
    ServerOptions sopts;
    sopts.listen = "127.0.0.1:0";
    sopts.maxBatchRequests = 3;
    sopts.retryAfterMs = 7;
    Server server(sopts);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    constexpr std::size_t kBurst = 50;
    std::vector<std::string> lines;
    std::string failure;
    Executor executor(2);
    executor.forEach(2, [&](std::size_t task) {
        if (task == 0) {
            server.serve();
            return;
        }
        const int fd = rawConnect(server.address());
        if (fd < 0) {
            // netchar-lint: allow(race-shared-write) -- task-disjoint: only this task writes it and forEach joins before the read
            failure = "connect failed";
        } else {
            std::string blob;
            for (std::size_t i = 0; i < kBurst; ++i)
                blob += "{\"verb\":\"ping\"}\n";
            if (!rawSend(fd, blob))
                // netchar-lint: allow(race-shared-write) -- task-disjoint: only this task writes it and forEach joins before the read
                failure = "send failed";
            else
                // netchar-lint: allow(race-shared-write) -- task-disjoint: only this task writes it and forEach joins before the read
                lines = rawReadLines(fd, kBurst);
            rawSend(fd, "{\"verb\":\"shutdown\"}\n");
            rawReadLines(fd, 1);
            ::close(fd);
        }
        if (fd < 0) {
            // Still end the daemon so the test fails instead of
            // hanging.
            ClientOptions copts;
            copts.address = server.address();
            Client client(copts);
            std::string response, err;
            EXPECT_TRUE(client.request(R"({"verb":"shutdown"})", response,
                                       err))
                << err;
        }
    });
    ASSERT_EQ(failure, "");
    ASSERT_EQ(lines.size(), kBurst);

    std::size_t pongs = 0, shed = 0;
    for (const std::string &line : lines) {
        if (line.find("pong") != std::string::npos)
            ++pongs;
        else if (line.find("\"code\":\"overloaded\"") !=
                 std::string::npos) {
            ++shed;
            EXPECT_NE(line.find("\"retryAfterMs\":7"),
                      std::string::npos)
                << line;
        }
    }
    EXPECT_EQ(pongs + shed, kBurst);
    EXPECT_GE(pongs, 3u);  // at least one full round admitted
    EXPECT_GE(shed, 1u);   // the burst overran the budget
    EXPECT_GE(server.counters().overloaded, 1u);
    EXPECT_LE(server.counters().overloaded,
              static_cast<std::uint64_t>(kBurst - 3));
}

TEST(Admission, ByteBudgetSheds)
{
    ServerOptions sopts;
    sopts.listen = "127.0.0.1:0";
    sopts.maxBatchRequests = 0; // bytes, not count, is the limit
    sopts.maxBatchBytes = 40;
    Server server(sopts);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    constexpr std::size_t kBurst = 10;
    std::vector<std::string> lines;
    Executor executor(2);
    executor.forEach(2, [&](std::size_t task) {
        if (task == 0) {
            server.serve();
            return;
        }
        const int fd = rawConnect(server.address());
        if (fd >= 0) {
            std::string blob;
            for (std::size_t i = 0; i < kBurst; ++i)
                blob += "{\"verb\":\"ping\"}\n"; // 15 bytes a line
            rawSend(fd, blob);
            // netchar-lint: allow(race-shared-write) -- task-disjoint: only this task writes it and forEach joins before the read
            lines = rawReadLines(fd, kBurst);
            rawSend(fd, "{\"verb\":\"shutdown\"}\n");
            rawReadLines(fd, 1);
            ::close(fd);
        }
    });
    ASSERT_EQ(lines.size(), kBurst);
    std::size_t pongs = 0, shed = 0;
    for (const std::string &line : lines) {
        if (line.find("pong") != std::string::npos)
            ++pongs;
        else if (line.find("\"code\":\"overloaded\"") !=
                 std::string::npos)
            ++shed;
    }
    EXPECT_EQ(pongs + shed, kBurst);
    EXPECT_GE(pongs, 2u);
    EXPECT_GE(shed, 1u);
}

TEST(Admission, OversizedLineGetsErrorAndClose)
{
    ServerOptions sopts;
    sopts.listen = "127.0.0.1:0";
    sopts.maxLineBytes = 64;
    Server server(sopts);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    std::vector<std::string> lines;
    bool peerClosed = false;
    Executor executor(2);
    executor.forEach(2, [&](std::size_t task) {
        if (task == 0) {
            server.serve();
            return;
        }
        const int fd = rawConnect(server.address());
        if (fd >= 0) {
            rawSend(fd, std::string(200, 'x') + "\n");
            // netchar-lint: allow(race-shared-write) -- task-disjoint: only this task writes it and forEach joins before the read
            lines = rawReadLines(fd, 1);
            char byte = 0;
            // netchar-lint: allow(race-shared-write) -- task-disjoint: only this task writes it and forEach joins before the read
            peerClosed = ::recv(fd, &byte, 1, 0) == 0;
            ::close(fd);
        }
        ClientOptions copts;
        copts.address = server.address();
        Client client(copts);
        std::string response, err;
        EXPECT_TRUE(client.request(R"({"verb":"shutdown"})", response,
                                   err))
            << err;
    });
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"code\":\"oversized\""),
              std::string::npos)
        << lines[0];
    EXPECT_NE(lines[0].find("64"), std::string::npos) << lines[0];
    EXPECT_TRUE(peerClosed)
        << "connection must be dropped after an oversized line";
    EXPECT_EQ(server.counters().oversized, 1u);
}

// -- accepted sockets ---------------------------------------------

/** The daemon's end of a connection to the TCP port `port`: an
 *  accepted (non-listening) socket of this process bound to it. */
int
acceptedSocketOnPort(std::uint16_t port)
{
    for (int fd = 0; fd < 1024; ++fd) {
        sockaddr_in local{};
        socklen_t len = sizeof(local);
        int listening = 0;
        socklen_t optLen = sizeof(listening);
        if (::getsockname(fd, reinterpret_cast<sockaddr *>(&local),
                          &len) == 0 &&
            local.sin_family == AF_INET && ntohs(local.sin_port) == port &&
            ::getsockopt(fd, SOL_SOCKET, SO_ACCEPTCONN, &listening,
                         &optLen) == 0 &&
            listening == 0)
            return fd;
    }
    return -1;
}

TEST(Accept, TcpConnectionsGetNoDelayAndSendTimeout)
{
    ServerOptions sopts;
    sopts.listen = "127.0.0.1:0";
    sopts.idleTimeoutMs = 2500;
    Server server(sopts);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    const auto port = static_cast<std::uint16_t>(std::stoul(
        server.address().substr(server.address().rfind(':') + 1)));

    int noDelay = -1;
    timeval sendTimeout{};
    std::vector<std::string> lines;
    Executor executor(2);
    executor.forEach(2, [&](std::size_t task) {
        if (task == 0) {
            server.serve();
            return;
        }
        const int fd = rawConnect(server.address());
        if (fd >= 0) {
            // A pong proves the daemon has accepted and set up its
            // end of the connection.
            rawSend(fd, "{\"verb\":\"ping\"}\n");
            // netchar-lint: allow(race-shared-write) -- task-disjoint: only this task writes it and forEach joins before the read
            lines = rawReadLines(fd, 1);
            const int accepted = acceptedSocketOnPort(port);
            socklen_t len = sizeof(noDelay);
            ::getsockopt(accepted, IPPROTO_TCP, TCP_NODELAY, &noDelay,
                         &len);
            len = sizeof(sendTimeout);
            ::getsockopt(accepted, SOL_SOCKET, SO_SNDTIMEO, &sendTimeout,
                         &len);
            ::close(fd);
        }
        ClientOptions copts;
        copts.address = server.address();
        Client client(copts);
        std::string response, err;
        EXPECT_TRUE(client.request(R"({"verb":"shutdown"})", response,
                                   err))
            << err;
    });
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("pong"), std::string::npos) << lines[0];
    EXPECT_EQ(noDelay, 1);
    EXPECT_EQ(sendTimeout.tv_sec, 2);
    EXPECT_EQ(sendTimeout.tv_usec, 500000);
}

// -- deadlines ----------------------------------------------------

TEST(Deadline, ExpiredInQueueShedsWithNamedError)
{
    Server server(ServerOptions{});
    const std::vector<std::string> lines = {
        R"({"verb":"run","benchmark":"SeekUnroll","deadlineMs":1,)"
        R"("options":{"warmup":20000,"measure":40000}})",
        R"({"verb":"ping","deadlineMs":1})",
        R"({"verb":"ping"})",
    };
    // Enqueue times of 0 mean "queued since boot": both deadlined
    // requests are long expired; the undeadlined ping is untouched.
    const std::vector<std::uint64_t> enqueuedAt(lines.size(), 0);
    const auto responses = server.handleBatch(lines, &enqueuedAt);
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_NE(responses[0].find("\"code\":\"deadline\""),
              std::string::npos)
        << responses[0];
    EXPECT_NE(responses[1].find("\"code\":\"deadline\""),
              std::string::npos)
        << responses[1];
    EXPECT_NE(responses[2].find("pong"), std::string::npos);
    EXPECT_EQ(server.counters().deadlineExpired, 2u);
    // The shed run was never computed or cached.
    EXPECT_EQ(server.cacheCounters().inserts, 0u);
}

TEST(Deadline, IsNotPartOfTheCacheKey)
{
    // A deadline changes whether a result is delivered, never what
    // the result is — so with and without one must share an entry.
    Server server(ServerOptions{});
    const std::string with = server.handleLine(
        R"({"verb":"run","benchmark":"SeekUnroll",)"
        R"("deadlineMs":60000,)"
        R"("options":{"warmup":20000,"measure":40000}})");
    const std::string without = server.handleLine(
        R"({"verb":"run","benchmark":"SeekUnroll",)"
        R"("options":{"warmup":20000,"measure":40000}})");
    JsonValue d1, d2;
    std::string err;
    ASSERT_TRUE(parseJson(with, d1, err)) << err;
    ASSERT_TRUE(parseJson(without, d2, err)) << err;
    EXPECT_EQ(d1.find("key")->string, d2.find("key")->string);
    EXPECT_EQ(d1.find("cache")->string, "miss");
    EXPECT_EQ(d2.find("cache")->string, "hit");

    // And the wire round-trips it.
    Request req;
    req.verb = Verb::Ping;
    req.deadlineMs = 1234;
    EXPECT_EQ(parseRequest(requestLine(req)).deadlineMs, 1234u);
}

TEST(Deadline, ClientBudgetFailsFastAgainstDeadServer)
{
    ClientOptions copts;
    copts.address = "127.0.0.1:1"; // nothing listens here
    copts.maxAttempts = 1000000;   // the deadline, not attempts,
    copts.backoffBaseMicros = 2000; // must end this
    copts.deadlineMs = 30;
    Client client(copts);
    std::string response, error;
    EXPECT_FALSE(
        client.request(R"({"verb":"ping"})", response, error));
    EXPECT_NE(error.find("deadline"), std::string::npos) << error;
    EXPECT_NE(error.find("30"), std::string::npos) << error;
}

/** What a 2-attempt, 200 ms-budget client gets from a fake daemon
 *  that refuses every line as overloaded with `retryAfterMs` set to
 *  `hintMs`. */
struct OverloadedOutcome
{
    bool ok = true;
    std::string error;
    std::uint64_t tookMs = 0;
};

OverloadedOutcome
requestAgainstOverloadedDaemon(const std::string &hintMs)
{
    OverloadedOutcome out;
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (listener < 0 ||
        ::bind(listener, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listener, 4) != 0 ||
        ::getsockname(listener, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0) {
        if (listener >= 0)
            ::close(listener);
        out.error = "fake daemon: cannot listen";
        return out;
    }
    timeval tv{};
    tv.tv_sec = 10; // a hung test should fail, not wedge the suite
    ::setsockopt(listener, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    const std::string refusal =
        R"({"ok":false,"code":"overloaded","error":"busy",)"
        R"("retryAfterMs":)" +
        hintMs + "}\n";

    Executor executor(2);
    executor.forEach(2, [&](std::size_t task) {
        if (task == 0) {
            const int fd = ::accept(listener, nullptr, nullptr);
            if (fd < 0)
                return;
            ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
            // One refusal per line, until the client hangs up.
            std::string buffer;
            char buf[4096];
            for (ssize_t n; (n = ::recv(fd, buf, sizeof(buf), 0)) > 0;) {
                buffer.append(buf, static_cast<std::size_t>(n));
                while (buffer.find('\n') != std::string::npos) {
                    buffer.erase(0, buffer.find('\n') + 1);
                    rawSend(fd, refusal);
                }
            }
            ::close(fd);
            return;
        }
        ClientOptions copts;
        copts.address =
            "127.0.0.1:" + std::to_string(ntohs(addr.sin_port));
        copts.maxAttempts = 2;
        copts.deadlineMs = 200;
        Client client(copts);
        std::string response;
        const std::uint64_t start = monotonicMillis();
        out.ok = client.request(R"({"verb":"ping"})", response,
                                out.error);
        out.tookMs = monotonicMillis() - start;
    });
    ::close(listener);
    return out;
}

TEST(Deadline, OverloadedHintIsCappedByTheBudget)
{
    // A 1e11 ms hint (about three years) must not be slept before
    // the deadline is checked, and 18446744073709552 ms, whose
    // microseconds wrap a uint64 to 384, must not shrink to a short
    // sleep and a second attempt. Both end in the deadline error
    // once the 200 ms budget is spent.
    for (const char *hint : {"100000000000", "18446744073709552"}) {
        const OverloadedOutcome got =
            requestAgainstOverloadedDaemon(hint);
        EXPECT_FALSE(got.ok) << hint;
        EXPECT_EQ(got.error.rfind("deadline:", 0), 0u)
            << hint << ": " << got.error;
        EXPECT_GE(got.tookMs, 200u) << hint;
        EXPECT_LT(got.tookMs, 1000u) << hint;
    }
}

// -- graceful drain -----------------------------------------------

TEST(Drain, HandleBatchRefusesWhileDraining)
{
    Server server(ServerOptions{});
    EXPECT_FALSE(server.draining());
    server.beginDrain();
    server.beginDrain(); // idempotent
    EXPECT_TRUE(server.draining());
    const auto responses = server.handleBatch(
        {R"({"verb":"ping"})", R"({"verb":"stats"})"});
    ASSERT_EQ(responses.size(), 2u);
    for (const std::string &response : responses)
        EXPECT_NE(response.find("\"code\":\"draining\""),
                  std::string::npos)
            << response;
    EXPECT_EQ(server.counters().drained, 2u);
}

TEST(Drain, SigtermFinishesWorkPersistsAndExitsZero)
{
    const std::string persist =
        testing::TempDir() + "netchar_drain_persist.bin";
    std::remove(persist.c_str());
    std::remove((persist + ".journal").c_str());
    const std::string line =
        R"({"verb":"run","benchmark":"SeekUnroll",)"
        R"("options":{"warmup":20000,"measure":40000}})";

    Server::installDrainSignalHandlers();
    ServerOptions sopts;
    sopts.listen = "127.0.0.1:0";
    sopts.persistPath = persist;
    Server server(sopts);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    int rc = -1;
    std::string body, failure;
    Executor executor(2);
    executor.forEach(2, [&](std::size_t task) {
        if (task == 0) {
            // netchar-lint: allow(race-shared-write) -- task-disjoint: only this task writes it and forEach joins before the read
            rc = server.serve();
            return;
        }
        ClientOptions copts;
        copts.address = server.address();
        copts.maxAttempts = 20;
        copts.backoffBaseMicros = 1000;
        Client client(copts);
        std::string response, err;
        if (!client.request(line, response, err)) {
            // netchar-lint: allow(race-shared-write) -- task-disjoint: only this task writes it and forEach joins before the read
            failure = "run: " + err;
        } else {
            // netchar-lint: allow(race-shared-write) -- task-disjoint: only this task writes it and forEach joins before the read
            body = response.substr(response.find(",\"body\":"));
        }
        // The operator's kill -TERM: the in-flight work above is
        // already answered; the daemon must checkpoint and exit 0.
        std::raise(SIGTERM);
    });
    ASSERT_EQ(failure, "");
    EXPECT_EQ(rc, 0);
    EXPECT_TRUE(server.draining());

    // The drained daemon persisted its cache: a restart serves the
    // same bytes as a hit.
    ServerOptions ropts;
    ropts.listen = "127.0.0.1:0";
    ropts.persistPath = persist;
    Server reborn(ropts);
    ASSERT_TRUE(reborn.start(error)) << error;
    const std::string cached = reborn.handleLine(line);
    JsonValue doc;
    ASSERT_TRUE(parseJson(cached, doc, error)) << error;
    EXPECT_EQ(doc.find("cache")->string, "hit");
    EXPECT_EQ(cached.substr(cached.find(",\"body\":")), body);
    std::remove(persist.c_str());
    std::remove((persist + ".journal").c_str());
}

// -- wire chaos ---------------------------------------------------

TEST(Chaos, WireSpecParsesAndRejects)
{
    const WireFaultPlan plan =
        WireFaultPlan::parse("rate=0.25,kinds=split+reset,seed=9");
    EXPECT_TRUE(plan.enabled());
    EXPECT_EQ(plan.rate(), 0.25);
    EXPECT_EQ(plan.seed(), 9u);
    ASSERT_EQ(plan.kinds().size(), 2u);
    EXPECT_EQ(plan.kinds()[0], WireFaultKind::SplitWrite);
    EXPECT_EQ(plan.kinds()[1], WireFaultKind::ResetMidResponse);
    EXPECT_FALSE(plan.describe().empty());

    // kinds defaults to the whole family.
    EXPECT_EQ(WireFaultPlan::parse("rate=1").kinds().size(), 5u);
    // rate=0 parses but injects nothing.
    EXPECT_FALSE(WireFaultPlan::parse("rate=0").enabled());

    EXPECT_THROW(WireFaultPlan::parse(""), std::invalid_argument);
    EXPECT_THROW(WireFaultPlan::parse("kinds=split"),
                 std::invalid_argument); // rate= is required
    EXPECT_THROW(WireFaultPlan::parse("rate=1.5"),
                 std::invalid_argument);
    EXPECT_THROW(WireFaultPlan::parse("rate=x"),
                 std::invalid_argument);
    EXPECT_THROW(WireFaultPlan::parse("rate=1,kinds=bogus"),
                 std::invalid_argument);
    EXPECT_THROW(WireFaultPlan::parse("rate=1,seed=x"),
                 std::invalid_argument);
    EXPECT_THROW(WireFaultPlan::parse("rate=1,frobnicate=2"),
                 std::invalid_argument);
}

TEST(Chaos, DecisionsAreSeededAndDeterministic)
{
    const WireFaultPlan a = WireFaultPlan::parse("rate=1,seed=11");
    const WireFaultPlan b = WireFaultPlan::parse("rate=1,seed=11");
    const WireFaultPlan c = WireFaultPlan::parse("rate=1,seed=12");
    std::size_t divergences = 0;
    for (std::uint64_t seq = 0; seq < 200; ++seq) {
        const WireFaultDecision da = a.decide(seq);
        const WireFaultDecision db = b.decide(seq);
        EXPECT_EQ(da.kind, db.kind) << seq;
        EXPECT_EQ(da.chunkBytes, db.chunkBytes) << seq;
        EXPECT_EQ(da.stallMicros, db.stallMicros) << seq;
        EXPECT_EQ(da.resetAfterBytes, db.resetAfterBytes) << seq;
        EXPECT_EQ(da.truncateBytes, db.truncateBytes) << seq;
        // rate=1: every response is faulted, within spec'd bounds.
        ASSERT_TRUE(static_cast<bool>(da)) << seq;
        if (da.kind == WireFaultKind::SplitWrite) {
            EXPECT_GE(da.chunkBytes, 1u);
            EXPECT_LE(da.chunkBytes, 16u);
        } else if (da.kind == WireFaultKind::StallWrite) {
            EXPECT_GE(da.stallMicros, 1000u);
            EXPECT_LE(da.stallMicros, 20000u);
        } else if (da.kind == WireFaultKind::ResetMidResponse) {
            EXPECT_LT(da.resetAfterBytes, 64u);
        } else if (da.kind == WireFaultKind::TruncateJournal) {
            EXPECT_GE(da.truncateBytes, 1u);
            EXPECT_LE(da.truncateBytes, 48u);
        }
        if (da.kind != c.decide(seq).kind)
            ++divergences;
    }
    EXPECT_GT(divergences, 0u) << "seed must matter";
    // A single-kind plan only ever injects that kind.
    const WireFaultPlan only =
        WireFaultPlan::parse("rate=1,kinds=stall");
    for (std::uint64_t seq = 0; seq < 50; ++seq)
        EXPECT_EQ(only.decide(seq).kind, WireFaultKind::StallWrite);
}

TEST(Chaos, ClientReassemblesByteIdenticalBodies)
{
    // Every response gets a wire fault (rate=1), including journal
    // tail truncation — and the client must still end up with the
    // exact bytes a fault-free server produces.
    const std::string persist =
        testing::TempDir() + "netchar_chaos_persist.bin";
    std::remove(persist.c_str());
    std::remove((persist + ".journal").c_str());
    const std::string lineA =
        R"({"verb":"run","benchmark":"SeekUnroll",)"
        R"("options":{"warmup":20000,"measure":40000}})";
    const std::string lineB =
        R"({"verb":"run","benchmark":"CscBench",)"
        R"("options":{"warmup":20000,"measure":40000}})";

    Server clean(ServerOptions{});
    const std::string refA = clean.handleLine(lineA);
    const std::string refB = clean.handleLine(lineB);

    ServerOptions sopts;
    sopts.listen = "127.0.0.1:0";
    sopts.persistPath = persist;
    sopts.chaosWire = WireFaultPlan::parse(
        "rate=1,kinds=split+merge+stall+reset+journal,seed=3");
    Server server(sopts);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    std::string bodyA, bodyB, failure;
    Executor executor(2);
    executor.forEach(2, [&](std::size_t task) {
        if (task == 0) {
            server.serve();
            return;
        }
        ClientOptions copts;
        copts.address = server.address();
        copts.maxAttempts = 50;
        copts.backoffBaseMicros = 500;
        copts.ioTimeoutMs = 3000;
        Client client(copts);
        std::string response, err;
        if (!client.request(lineA, response, err))
            // netchar-lint: allow(race-shared-write) -- task-disjoint: only this task writes it and forEach joins before the read
            failure = "A: " + err;
        else
            // netchar-lint: allow(race-shared-write) -- task-disjoint: only this task writes it and forEach joins before the read
            bodyA = response.substr(response.find(",\"body\":"));
        if (!client.request(lineB, response, err))
            // netchar-lint: allow(race-shared-write) -- task-disjoint: only this task writes it and forEach joins before the read
            failure += " B: " + err;
        else
            // netchar-lint: allow(race-shared-write) -- task-disjoint: only this task writes it and forEach joins before the read
            bodyB = response.substr(response.find(",\"body\":"));
        // The shutdown answer may itself be torn by chaos; one
        // attempt is enough because the verb takes effect on
        // receipt, not on acknowledgment.
        ClientOptions byeOpts = copts;
        byeOpts.maxAttempts = 1;
        Client bye(byeOpts);
        static_cast<void>(
            bye.request(R"({"verb":"shutdown"})", response, err));
    });
    ASSERT_EQ(failure, "");
    EXPECT_EQ(bodyA, refA.substr(refA.find(",\"body\":")));
    EXPECT_EQ(bodyB, refB.substr(refB.find(",\"body\":")));
    EXPECT_GE(server.counters().wireFaults, 2u);

    // Chaos may have torn the journal, but never in a way that can
    // poison the next start.
    ServerOptions ropts;
    ropts.listen = "127.0.0.1:0";
    ropts.persistPath = persist;
    Server reborn(ropts);
    ASSERT_TRUE(reborn.start(error)) << error;
    std::remove(persist.c_str());
    std::remove((persist + ".journal").c_str());
}

/** Chaos-wire shard-merge vs fault-free single process, per
 *  machine: the acceptance bar for the whole wire-fault family. */
void
expectChaosShardMergeMatchesClean(const std::string &machine)
{
    const std::string line = R"({"verb":"sweep","suite":"dotnet",)"
                             R"("machine":")" +
                             machine + R"(","format":"csv",)"
                             R"("options":{"warmup":20000,)"
                             R"("measure":40000}})";
    std::vector<SweepPartial> partials(2);
    for (unsigned s = 0; s < 2; ++s) {
        ServerOptions sopts;
        sopts.listen = "127.0.0.1:0";
        sopts.shard = s;
        sopts.shards = 2;
        sopts.chaosWire = WireFaultPlan::parse(
            "rate=0.6,kinds=split+merge+stall+reset,seed=7");
        Server server(sopts);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;
        std::string failure;
        Executor executor(2);
        executor.forEach(2, [&](std::size_t task) {
            if (task == 0) {
                server.serve();
                return;
            }
            ClientOptions copts;
            copts.address = server.address();
            copts.maxAttempts = 50;
            copts.backoffBaseMicros = 500;
            Client client(copts);
            std::string response, err;
            if (!client.request(line, response, err)) {
                // netchar-lint: allow(race-shared-write) -- task-disjoint: only this task writes it and forEach joins before the read
                failure = "sweep: " + err;
            } else {
                JsonValue doc;
                if (!parseJson(response, doc, err) ||
                    doc.find("ok") == nullptr ||
                    !doc.find("ok")->boolean ||
                    !parseSweepBody(*doc.find("body"), partials[s],
                                    err))
                    // netchar-lint: allow(race-shared-write) -- task-disjoint: only this task writes it and forEach joins before the read
                    failure = "bad sweep response: " + err;
            }
            ClientOptions byeOpts = copts;
            byeOpts.maxAttempts = 1;
            Client bye(byeOpts);
            static_cast<void>(
                bye.request(R"({"verb":"shutdown"})", response, err));
        });
        ASSERT_EQ(failure, "") << "shard " << s;
        EXPECT_GE(server.counters().wireFaults, 1u) << "shard " << s;
    }
    std::string merged, error;
    ASSERT_TRUE(mergeSweep(partials, merged, error)) << error;

    // Fault-free single-process reference: the bytes `netchar
    // suite` prints.
    sim::MachineConfig config =
        sim::MachineConfig::intelCoreI99980Xe();
    if (machine == "xeon")
        config = sim::MachineConfig::intelXeonE52620V4();
    else if (machine == "arm")
        config = sim::MachineConfig::armServer();
    const auto profiles = wl::suiteProfiles(wl::Suite::DotNet);
    RunOptions run;
    run.warmupInstructions = 20000;
    run.measuredInstructions = 40000;
    Characterizer ch(config);
    Parallelism par;
    SuiteRunStats stats;
    const auto results = ch.runAll(profiles, run, par, &stats);
    std::vector<std::string> names;
    for (const auto &p : profiles)
        names.push_back(p.name);
    EXPECT_EQ(merged, metricsCsv(names, results))
        << "chaos shard merge diverged on machine " << machine;
}

TEST(Chaos, ShardMergeMatchesCleanSuiteI9)
{
    expectChaosShardMergeMatchesClean("i9");
}

TEST(Chaos, ShardMergeMatchesCleanSuiteXeon)
{
    expectChaosShardMergeMatchesClean("xeon");
}

TEST(Chaos, ShardMergeMatchesCleanSuiteArm)
{
    expectChaosShardMergeMatchesClean("arm");
}

// -- stats surface ------------------------------------------------

TEST(Stats, ReportsAdmissionAndJournalSections)
{
    Server server(ServerOptions{});
    const std::vector<std::uint64_t> enqueuedAt = {0};
    server.handleBatch({R"({"verb":"ping","deadlineMs":1})"},
                       &enqueuedAt);
    const std::string response =
        server.handleLine(R"({"verb":"stats"})");
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(response, doc, err)) << err;
    const JsonValue *body = doc.find("body");
    ASSERT_NE(body, nullptr);
    const JsonValue *admission = body->find("admission");
    ASSERT_NE(admission, nullptr);
    EXPECT_EQ(admission->find("deadlineExpired")->number, 1.0);
    EXPECT_EQ(admission->find("overloaded")->number, 0.0);
    const JsonValue *journal = body->find("journal");
    ASSERT_NE(journal, nullptr);
    EXPECT_EQ(journal->find("dropped")->number, 0.0);
}

// -- seeded mutations of every parser of outside bytes ------------

/** Replacement bytes biased towards JSON punctuation and literals. */
constexpr std::string_view kJsonAlphabet =
    "{}[]\":,.-+0123456789eE \\nutrfals";

TEST(ServeFuzz, RequestsParseOrThrowProtocolError)
{
    const std::vector<std::string> seeds = {
        R"({"verb":"ping"})",
        R"({"verb":"run","benchmark":"SeekUnroll","machine":"xeon",)"
        R"("options":{"warmup":20000,"measure":40000,"cores":2,)"
        R"("jitHint":true}})",
        R"({"verb":"sweep","suite":"spec","format":"json",)"
        R"("deadlineMs":50,"options":{"seed":7,"gcMode":"server",)"
        R"("allocScale":1.5}})",
        R"({"verb":"subset","suite":"dotnet","size":4,"options":)"
        R"({"maxHeap":1048576,"quantum":1000,"gcAssist":"hardware"}})",
    };
    std::uint64_t state = 3;
    unsigned accepted = 0, rejected = 0;
    for (std::size_t i = 0; i < 3000; ++i) {
        const std::string line =
            test::mutate(seeds[i % seeds.size()], state, kJsonAlphabet);
        try {
            const std::string canonical =
                requestLine(parseRequest(line));
            ++accepted;
            // What the parser accepts, the client renders back to a
            // line the parser reads as the same request.
            EXPECT_EQ(requestLine(parseRequest(canonical)), canonical)
                << "line: " << line;
        } catch (const ProtocolError &) {
            ++rejected;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "line: " << line << "\nthrew: " << e.what();
        }
    }
    // The mutator must exercise both outcomes to mean anything. The
    // grammar is strict (unknown keys, leading zeros and trailing
    // bytes all refuse), so few mutations survive: 47 of these 3000.
    EXPECT_GT(accepted, 20u);
    EXPECT_GT(rejected, 100u);
}

TEST(ServeFuzz, SweepBodiesMergeOrFailWithAMessage)
{
    // A 2-shard csv sweep of a 4-benchmark suite: shard 1's body is
    // mutated and merged with shard 0's intact partial.
    SweepPartial shard0;
    shard0.suite = "spec";
    shard0.format = "csv";
    shard0.shards = 2;
    shard0.suiteSize = 4;
    shard0.header = "benchmark,ipc";
    shard0.rows = {{0, "A", "A,1.5"}, {2, "C", "C,0.25"}};
    SweepPartial shard1 = shard0;
    shard1.shard = 1;
    shard1.rows = {{1, "B", "B,2"}, {3, "D", "D,0.5"}};
    RunFailure fail;
    fail.index = 3;
    fail.benchmark = "D";
    fail.attempt = 2;
    fail.kind = "throw";
    fail.seed = perturbedSeed(11, "D", 2); // a retry's 64-bit seed
    fail.backoffMicros = 250;
    fail.error = "injected";
    shard1.failures.push_back(fail);
    const std::string seed = sweepBodyJson(shard1);

    std::uint64_t state = 5;
    unsigned merged = 0, refused = 0;
    for (int i = 0; i < 3000; ++i) {
        const std::string text = test::mutate(seed, state, kJsonAlphabet);
        try {
            JsonValue doc;
            SweepPartial partial;
            std::string output, error;
            if (parseJson(text, doc, error) &&
                parseSweepBody(doc, partial, error) &&
                mergeSweep({shard0, partial}, output, error)) {
                ++merged;
            } else {
                ++refused;
                EXPECT_NE(error, "") << "body: " << text;
            }
        } catch (const std::exception &e) {
            ADD_FAILURE() << "body: " << text << "\nthrew: " << e.what();
        }
    }
    // Both outcomes must occur; 55 of these 3000 still merge.
    EXPECT_GT(merged, 20u);
    EXPECT_GT(refused, 100u);
}

TEST(ServeFuzz, JournalReplayRecoversAPrefix)
{
    const std::string path =
        testing::TempDir() + "netchar_journal_fuzz.journal";
    const std::string mutated =
        testing::TempDir() + "netchar_journal_fuzz_mutated.journal";
    std::remove(path.c_str());
    const std::vector<std::pair<std::string, std::string>> inserted =
        {{"k-one", "body one\nwith newline"},
         {"k-two", ""},
         {"k-three", "R 3 4 body three"},
         {"k-four", "{\"ok\":true}"}};
    std::string error;
    {
        CacheJournal journal;
        ASSERT_TRUE(journal.open(path, error)) << error;
        for (const auto &[key, body] : inserted)
            ASSERT_TRUE(journal.append(key, body, error)) << error;
    }
    const std::string bytes = readFile(path);

    std::uint64_t state = 7;
    unsigned whole = 0, cut = 0;
    for (int i = 0; i < 3000; ++i) {
        const std::string text =
            test::mutate(bytes, state, "R 0123456789abcdef\nk-");
        writeFile(mutated, text);
        std::vector<std::pair<std::string, std::string>> entries;
        JournalRecoveryReport report;
        ASSERT_TRUE(CacheJournal::replay(mutated, entries, report, error))
            << error;
        ASSERT_LE(entries.size(), inserted.size());
        for (std::size_t e = 0; e < entries.size(); ++e)
            ASSERT_EQ(entries[e], inserted[e])
                << "mutation " << i << " entry " << e;
        ++(entries.size() == inserted.size() ? whole : cut);
    }
    // Both outcomes must occur. Most edits break a checksum or a
    // record header; 13 of these 3000 keep every record (bytes
    // appended after the last one, for instance).
    EXPECT_GT(whole, 5u);
    EXPECT_GT(cut, 100u);
    std::remove(path.c_str());
    std::remove(mutated.c_str());
}

} // namespace
} // namespace netchar::serve
