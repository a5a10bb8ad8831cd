/**
 * @file
 * Serve subsystem tests: shared hash helpers, cache-key
 * canonicalization (field order / default invariance), LRU eviction
 * and persistence, protocol robustness (malformed requests answer
 * with structured errors, never crashes), concurrent clients over a
 * real socket, and the headline guarantee — shard-merged sweep
 * output byte-identical to the single-process sweep on every
 * machine model. Golden digests pin the sweep and subset response
 * bytes.
 */

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/canonical.hh"
#include "core/characterize.hh"
#include "core/executor.hh"
#include "core/export.hh"
#include "core/faults.hh"
#include "serve/cache.hh"
#include "serve/client.hh"
#include "serve/journal.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/shard.hh"
#include "stats/hash.hh"
#include "stats/rng.hh"
#include "workloads/registry.hh"

namespace netchar::serve
{
namespace
{

// -- shared hash helpers (hoisted from core/faults.cc in this PR) --

TEST(Hash, Fnv1aIsStableAndDiscriminates)
{
    EXPECT_EQ(fnv1a("SeekUnroll"), fnv1a("SeekUnroll"));
    EXPECT_NE(fnv1a("SeekUnroll"), fnv1a("SeekUnrolL"));
    EXPECT_NE(fnv1a(""), fnv1a("a"));
    // Chained form must continue, not restart.
    EXPECT_EQ(fnv1a("ab"), fnv1a("b", fnv1a("a")));
}

TEST(Hash, Splitmix64Scrambles)
{
    EXPECT_NE(splitmix64(1), splitmix64(2));
    EXPECT_EQ(splitmix64(42), splitmix64(42));
}

TEST(Hash, UnitIntervalInRange)
{
    for (std::uint64_t x : {0ULL, 1ULL, ~0ULL, 0xDEADBEEFULL}) {
        const double u = unitInterval(splitmix64(x));
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Hash, ContentHashHexShape)
{
    const std::string h = contentHashHex("hello");
    EXPECT_EQ(h.size(), 32u);
    EXPECT_EQ(h.find_first_not_of("0123456789abcdef"),
              std::string::npos);
    EXPECT_EQ(h, contentHashHex("hello"));
    EXPECT_NE(h, contentHashHex("hellp"));
    // The second reversed pass discriminates permutations a single
    // forward FNV stream could alias.
    EXPECT_NE(contentHashHex("ab;cd"), contentHashHex("cd;ab"));
}

TEST(Hash, ContentHashHexKnownAnswers)
{
    // Pinned values: persisted caches and every served key depend
    // on these exact bytes, so any change here is a schema change.
    EXPECT_EQ(contentHashHex(""), "1b917eda82ac66e64ea0537ff367da6b");
    EXPECT_EQ(contentHashHex("a"), "0512e1c2d60d81c04ea8b59b55430853");
    EXPECT_EQ(contentHashHex("hello"),
              "b6f28d83babe0af5ad42c36c145b2eb8");
    // Every byte value, high bit included, over 2 KB.
    std::string bytes;
    for (int i = 0; i < 2048; ++i)
        bytes.push_back(static_cast<char>((i * 131 + 7) & 0xFF));
    EXPECT_EQ(contentHashHex(bytes), "642ec6140be9ecadacc1e6daef8d6411");
    // A real ~2 KB run key text, as the serve hit path hashes it.
    const std::string key =
        "run/" + cacheKeyText(*wl::findProfile("SeekUnroll"),
                              sim::MachineConfig::intelCoreI99980Xe(),
                              RunOptions{});
    EXPECT_EQ(key.size(), 1935u);
    EXPECT_EQ(contentHashHex(key), "0c47193e086d984ffd8a43b607d6e31f");
}

TEST(Hash, FnvReverseMatchesTheByteWalk)
{
    // The reference: FNV-1a continued from `h` over the bytes of `s`
    // in reverse order.
    const auto walk = [](std::string_view s, std::uint64_t h) {
        return fnv1a(std::string(s.rbegin(), s.rend()), h);
    };
    stats::Rng rng(34);
    std::vector<std::string> texts = {"", std::string(1, '\0'),
                                      std::string(1, '\xff'), "a"};
    // Every byte value, 0x00 and 0xFF included, in one 2 KB string.
    std::string every;
    for (int i = 0; i < 2048; ++i)
        every.push_back(static_cast<char>((i * 131 + 7) & 0xFF));
    texts.push_back(every);
    for (const std::size_t size :
         {2u, 3u, 17u, 255u, 256u, 257u, 1000u, 2047u, 2048u}) {
        std::string text;
        for (std::size_t i = 0; i < size; ++i)
            text.push_back(static_cast<char>(rng.below(256)));
        texts.push_back(text);
    }
    for (const std::string &text : texts) {
        const FnvReverse map(text);
        // Random starts, plus each start's low byte at both ends.
        std::vector<std::uint64_t> starts = {0, ~0ULL, kFnvOffsetBasis};
        for (int i = 0; i < 64; ++i)
            starts.push_back(rng.next());
        for (const std::uint64_t h : starts) {
            EXPECT_EQ(map(h), walk(text, h))
                << text.size() << " bytes from " << h;
            if (text.empty()) {
                EXPECT_EQ(map(h), h);
            }
        }
    }
}

TEST(Hash, HashedPrefixEqualsWholeText)
{
    // Every split of a text into prefix pieces and a suffix, empty
    // pieces included, hashes like the concatenation.
    const std::string text = "run/netchar-key/v1{profile{a=1;}\xff}";
    const std::string whole = contentHashHex(text);
    for (std::size_t a = 0; a <= text.size(); ++a) {
        for (std::size_t b = a; b <= text.size(); b += 3) {
            const std::string_view t = text;
            const FnvReverse maps[] = {FnvReverse(t.substr(0, a)),
                                       FnvReverse(""),
                                       FnvReverse(t.substr(a, b - a))};
            const FnvReverse *const reverse[] = {&maps[0], &maps[1],
                                                 &maps[2]};
            const HashedPrefix prefix{fnv1a(t.substr(0, b)), reverse};
            EXPECT_EQ(contentHashHex(prefix, t.substr(b)), whole)
                << a << '/' << b;
        }
    }
    EXPECT_EQ(contentHashHex(HashedPrefix{}, "hello"),
              contentHashHex("hello"));
}

// -- canonical cache-key text ------------------------------------

TEST(Canonical, KeyTextCoversEveryOptionField)
{
    const auto profile = wl::findProfile("SeekUnroll");
    ASSERT_TRUE(profile.has_value());
    const auto config = sim::MachineConfig::intelCoreI99980Xe();

    RunOptions a;
    const std::string base = cacheKeyText(*profile, config, a);
    RunOptions b = a;
    b.seed = 99;
    EXPECT_NE(base, cacheKeyText(*profile, config, b));
    RunOptions c = a;
    c.allocScale = 2.0;
    EXPECT_NE(base, cacheKeyText(*profile, config, c));
    RunOptions d = a;
    d.gcMode = rt::GcMode::Server;
    EXPECT_NE(base, cacheKeyText(*profile, config, d));

    const auto xeon = sim::MachineConfig::intelXeonE52620V4();
    EXPECT_NE(base, cacheKeyText(*profile, xeon, a));
    const auto other = wl::findProfile("CscBench");
    ASSERT_TRUE(other.has_value());
    EXPECT_NE(base, cacheKeyText(*other, config, a));
}

/** Seeded run options that set and unset every key-relevant field. */
std::vector<RunOptions>
seededRunOptions()
{
    std::vector<RunOptions> out(1); // all defaults
    stats::Rng rng(16);
    for (int i = 0; i < 11; ++i) {
        RunOptions o;
        o.warmupInstructions = rng.below(2'000'000);
        o.measuredInstructions =
            rng.below(2) != 0 ? rng.below(1u << 30) : 0;
        o.cores = 1 + static_cast<unsigned>(rng.below(4));
        o.seed = rng.next();
        o.jitHint = rng.chance(0.5);
        o.noc.sliceServiceRate = rng.uniform(0.001, 1.0);
        o.noc.maxQueueCycles = rng.uniform(1.0, 500.0);
        o.noc.rateSmoothing = rng.uniform(1.0, 1e5);
        o.noc.contentionEnabled = rng.chance(0.5);
        if (i % 2 == 0)
            o.gcMode = rng.chance(0.5) ? rt::GcMode::Server
                                       : rt::GcMode::Workstation;
        if (i % 3 == 0)
            o.gcAssist = rng.chance(0.5) ? rt::GcAssist::Hardware
                                         : rt::GcAssist::Software;
        if (i % 4 != 3)
            o.maxHeapBytes = rng.below(1ULL << 36);
        o.allocScale = rng.uniform(0.1, 4.0);
        o.quantum = 1 + rng.below(100'000);
        o.runBudgetCycles = rng.below(2) != 0 ? rng.next() : 0;
        out.push_back(o);
    }
    return out;
}

TEST(Canonical, KeyTableMatchesCacheKeyText)
{
    const RunKeyTable &table = RunKeyTable::instance();
    const auto profiles = wl::registeredProfiles();
    ASSERT_EQ(profiles.size(), 117u);
    const auto options = seededRunOptions();
    std::string keys;
    for (std::size_t p = 0; p < profiles.size(); ++p) {
        EXPECT_EQ(table.profileText(p), canonicalProfile(profiles[p]))
            << profiles[p].name;
        for (const sim::MachineModel &m : sim::machineModels()) {
            const sim::MachineConfig config = m.make();
            EXPECT_EQ(table.machineText(m.key),
                      canonicalMachine(config));
            for (std::size_t o = 0; o < options.size(); ++o) {
                const std::string reference = contentHashHex(
                    "run/" +
                    cacheKeyText(profiles[p], config, options[o]));
                EXPECT_EQ(table.runKey(p, m.key, options[o]), reference)
                    << profiles[p].name << ' ' << m.key << " options#"
                    << o;
                keys += reference;
            }
        }
    }
    // Every reference key of the sweep above, pinned: persisted
    // caches hit across builds only while these bytes hold.
    EXPECT_EQ(contentHashHex(keys), "7eaa12e3d3620ad35ac45625b89a2c42");
    EXPECT_THROW(table.machineText("no-such-machine"),
                 std::invalid_argument);
    EXPECT_THROW(table.profileText(profiles.size()), std::out_of_range);
}

TEST(Canonical, ServedRunKeyIsTheReferenceKey)
{
    Server server(ServerOptions{});
    const std::string line =
        R"({"verb":"run","benchmark":"mcf","machine":"arm",)"
        R"("options":{"warmup":2000,"measure":4000,"seed":3}})";
    RunOptions options;
    options.warmupInstructions = 2000;
    options.measuredInstructions = 4000;
    options.seed = 3;
    const std::string expected = contentHashHex(
        "run/" + cacheKeyText(*wl::findProfile("mcf"),
                              sim::MachineConfig::armServer(), options));
    for (const char *cache : {"miss", "hit"}) {
        JsonValue doc;
        std::string err;
        ASSERT_TRUE(parseJson(server.handleLine(line), doc, err)) << err;
        EXPECT_EQ(doc.find("cache")->string, cache);
        EXPECT_EQ(doc.find("key")->string, expected);
    }
}

TEST(Canonical, UnknownBenchmarkErrorBytes)
{
    Server server(ServerOptions{});
    EXPECT_EQ(
        server.handleLine(R"({"verb":"run","benchmark":"NoSuchBench"})"),
        R"({"ok":false,"error":"unknown benchmark 'NoSuchBench'"})");
    // Names are case-sensitive.
    EXPECT_EQ(server.handleLine(R"({"verb":"run","benchmark":"seekunroll",)"
                                R"("machine":"arm"})"),
              R"({"ok":false,"error":"unknown benchmark 'seekunroll'"})");
    EXPECT_EQ(server.counters().errors, 2u);
}

TEST(Canonical, RequestFieldOrderDoesNotChangeTheKey)
{
    Server server(ServerOptions{});
    const std::string r1 = server.handleLine(
        R"({"verb":"run","benchmark":"SeekUnroll",)"
        R"("machine":"i9","options":{"seed":7,"cores":2}})");
    const std::string r2 = server.handleLine(
        R"({"options":{"cores":2,"seed":7},"machine":"i9",)"
        R"("benchmark":"SeekUnroll","verb":"run"})");

    JsonValue d1, d2;
    std::string err;
    ASSERT_TRUE(parseJson(r1, d1, err)) << err;
    ASSERT_TRUE(parseJson(r2, d2, err)) << err;
    ASSERT_NE(d1.find("key"), nullptr);
    ASSERT_NE(d2.find("key"), nullptr);
    EXPECT_EQ(d1.find("key")->string, d2.find("key")->string);
    EXPECT_EQ(d1.find("cache")->string, "miss");
    EXPECT_EQ(d2.find("cache")->string, "hit");
}

TEST(Canonical, OmittedOptionsEqualExplicitDefaults)
{
    Server server(ServerOptions{});
    const RunOptions defaults;
    const std::string implicit = server.handleLine(
        R"({"verb":"run","benchmark":"SeekUnroll"})");
    const std::string explicit_line =
        R"({"verb":"run","benchmark":"SeekUnroll","machine":"i9",)"
        R"("options":{"seed":)" +
        std::to_string(defaults.seed) + R"(,"cores":)" +
        std::to_string(defaults.cores) + R"(,"warmup":)" +
        std::to_string(defaults.warmupInstructions) + "}}";
    const std::string explicitr = server.handleLine(explicit_line);

    JsonValue d1, d2;
    std::string err;
    ASSERT_TRUE(parseJson(implicit, d1, err)) << err;
    ASSERT_TRUE(parseJson(explicitr, d2, err)) << err;
    EXPECT_EQ(d1.find("key")->string, d2.find("key")->string);
    EXPECT_EQ(d2.find("cache")->string, "hit");
    // And the cached body is byte-identical to the computed one.
    EXPECT_EQ(d1.find("body") != nullptr, true);
    const auto body1 = implicit.substr(implicit.find(",\"body\":"));
    const auto body2 = explicitr.substr(explicitr.find(",\"body\":"));
    EXPECT_EQ(body1, body2);
}

// -- result cache -------------------------------------------------

TEST(Cache, LruEvictionOrder)
{
    CacheConfig config;
    config.maxEntries = 3;
    config.maxBytes = 0;
    ResultCache cache(config);
    cache.insert("a", "1");
    cache.insert("b", "2");
    cache.insert("c", "3");
    ASSERT_NE(cache.lookup("a"), nullptr); // bump a to MRU
    cache.insert("d", "4");                // evicts b, the LRU
    EXPECT_EQ(cache.lookup("b"), nullptr);
    EXPECT_NE(cache.lookup("c"), nullptr);
    EXPECT_NE(cache.lookup("d"), nullptr);
    EXPECT_EQ(cache.counters().evictions, 1u);
    EXPECT_EQ(cache.counters().entries, 3u);
}

TEST(Cache, ByteBudgetEvictsButKeepsLatest)
{
    CacheConfig config;
    config.maxEntries = 0;
    config.maxBytes = 10;
    ResultCache cache(config);
    cache.insert("small", "12345");
    cache.insert("big", std::string(64, 'x'));
    // The oversized newest entry survives alone: a cache that cannot
    // hold its own latest answer would be useless.
    EXPECT_EQ(cache.lookup("small"), nullptr);
    EXPECT_NE(cache.lookup("big"), nullptr);
    EXPECT_EQ(cache.counters().entries, 1u);
}

TEST(Cache, ReinsertRefreshesBodyAndRecency)
{
    ResultCache cache;
    cache.insert("k", "old");
    cache.insert("k", "new");
    ASSERT_NE(cache.lookup("k"), nullptr);
    EXPECT_EQ(*cache.lookup("k"), "new");
    EXPECT_EQ(cache.counters().entries, 1u);
    EXPECT_EQ(cache.counters().bytes, 3u);
}

TEST(Cache, PersistenceRoundTripPreservesRecency)
{
    const std::string path =
        testing::TempDir() + "netchar_cache_roundtrip.journal";
    std::remove(path.c_str());
    std::string error;
    {
        ResultCache cache;
        cache.insert("a", "alpha\nwith\nnewlines");
        cache.insert("b", "");
        cache.insert("c", "gamma");
        ASSERT_NE(cache.lookup("a"), nullptr); // recency: a,c,b
        CacheJournal journal;
        ASSERT_TRUE(journal.open(path, error)) << error;
        ASSERT_TRUE(journal.compact(cache, error)) << error;
        // The compaction walk neither counts nor bumps recency.
        EXPECT_EQ(cache.counters().hits, 1u);
        EXPECT_EQ(cache.keysByRecency(),
                  (std::vector<std::string>{"a", "c", "b"}));
    }
    std::vector<std::pair<std::string, std::string>> entries;
    JournalRecoveryReport report;
    ASSERT_TRUE(CacheJournal::replay(path, entries, report, error))
        << error;
    ResultCache loaded;
    for (auto &[key, body] : entries)
        loaded.restore(key, std::move(body));
    const auto keys = loaded.keysByRecency();
    ASSERT_EQ(keys.size(), 3u);
    EXPECT_EQ(keys[0], "a");
    EXPECT_EQ(keys[1], "c");
    EXPECT_EQ(keys[2], "b");
    ASSERT_NE(loaded.lookup("a"), nullptr);
    EXPECT_EQ(*loaded.lookup("a"), "alpha\nwith\nnewlines");
    ASSERT_NE(loaded.lookup("b"), nullptr);
    EXPECT_EQ(*loaded.lookup("b"), "");
    std::remove(path.c_str());
}

// -- protocol -----------------------------------------------------

TEST(Protocol, JsonParserHandlesEscapesAndRejectsGarbage)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(R"({"s":"a\"b\\c\ndA"})", v, err))
        << err;
    ASSERT_NE(v.find("s"), nullptr);
    EXPECT_EQ(v.find("s")->string, "a\"b\\c\nd\x41");

    EXPECT_FALSE(parseJson("", v, err));
    EXPECT_FALSE(parseJson("{", v, err));
    EXPECT_FALSE(parseJson("{}{}", v, err)); // trailing bytes
    EXPECT_FALSE(parseJson("{\"a\":01}", v, err));
    EXPECT_FALSE(parseJson("nope", v, err));

    // Plain non-negative integers also keep their exact value.
    ASSERT_TRUE(parseJson(
        R"([0, 13319558431009543222, 18446744073709551615,)"
        R"( 18446744073709551616, -1, 1.0, 1e3])",
        v, err))
        << err;
    ASSERT_EQ(v.array.size(), 7u);
    EXPECT_EQ(v.array[0].exactUint, 0u);
    EXPECT_EQ(v.array[1].exactUint, 13319558431009543222u);
    EXPECT_EQ(v.array[2].exactUint,
              std::numeric_limits<std::uint64_t>::max());
    for (std::size_t i = 3; i < v.array.size(); ++i) {
        EXPECT_TRUE(v.array[i].isNumber()) << i;
        EXPECT_FALSE(v.array[i].exactUint) << i;
    }
}

TEST(Protocol, WholeNumberReadsPlainIntegersExactly)
{
    const auto read = [](const std::string &text, std::uint64_t &out) {
        JsonValue v;
        std::string err;
        EXPECT_TRUE(parseJson(text, v, err)) << text << ": " << err;
        return wholeNumber(v, out);
    };
    std::uint64_t out = 0;
    // 2^53 + 1 has no double: read through one, it runs as 2^53.
    ASSERT_TRUE(read("9007199254740993", out));
    EXPECT_EQ(out, 9007199254740993u);
    ASSERT_TRUE(read("1e5", out));
    EXPECT_EQ(out, 100000u);
    ASSERT_TRUE(read("1000000000000000000", out));
    EXPECT_EQ(out, 1000000000000000000u);
    // The double of 1e18 + 1 is 1e18, inside the bound.
    out = 7;
    EXPECT_FALSE(read("1000000000000000001", out));
    EXPECT_FALSE(read("-1", out));
    EXPECT_FALSE(read("1.5", out));
    // Other spellings go through the double, which cannot tell
    // 2^53 + 1 from 2^53, so at or past 2^53 they are refused.
    EXPECT_FALSE(read("9007199254740993.0", out));
    EXPECT_FALSE(read("9.007199254740993e15", out));
    EXPECT_FALSE(read("1e18", out));
    EXPECT_EQ(out, 7u);

    const Request req = parseRequest(
        R"({"verb":"run","benchmark":"SeekUnroll",)"
        R"("options":{"seed":9007199254740993}})");
    EXPECT_EQ(req.options.seed, 9007199254740993u);
    EXPECT_THROW(parseRequest(R"({"verb":"run","benchmark":"SeekUnroll",)"
                              R"("options":{"seed":1000000000000000001}})"),
                 ProtocolError);
}

TEST(Protocol, RequestRoundTrip)
{
    Request req;
    req.verb = Verb::Sweep;
    req.suite = "dotnet";
    req.machine = "xeon";
    req.format = "json";
    req.options.seed = 5;
    req.options.cores = 4;
    const Request back = parseRequest(requestLine(req));
    EXPECT_EQ(back.verb, Verb::Sweep);
    EXPECT_EQ(back.suite, "dotnet");
    EXPECT_EQ(back.machine, "xeon");
    EXPECT_EQ(back.format, "json");
    EXPECT_EQ(back.options.seed, 5u);
    EXPECT_EQ(back.options.cores, 4u);
}

TEST(Protocol, MalformedRequestsThrowNamedErrors)
{
    EXPECT_THROW(parseRequest("not json"), ProtocolError);
    EXPECT_THROW(parseRequest(R"({"verb":"frobnicate"})"),
                 ProtocolError);
    EXPECT_THROW(parseRequest(R"({"verb":"run"})"), ProtocolError);
    EXPECT_THROW(parseRequest(R"({"verb":"sweep"})"), ProtocolError);
    EXPECT_THROW(
        parseRequest(
            R"({"verb":"run","benchmark":"x","machine":"m68k"})"),
        ProtocolError);
    try {
        parseRequest(R"({"verb":"run","benchmark":"x",)"
                     R"("options":{"sed":1}})");
        FAIL() << "typoed option accepted";
    } catch (const ProtocolError &ex) {
        EXPECT_NE(std::string(ex.what()).find("sed"),
                  std::string::npos);
    }
}

TEST(Protocol, UnknownKeysListTheValidOnes)
{
    const auto message = [](const std::string &line) {
        try {
            parseRequest(line);
        } catch (const ProtocolError &ex) {
            return std::string(ex.what());
        }
        return std::string("(accepted)");
    };
    EXPECT_EQ(message(R"({"verb":"run","benchmark":"x","machine":"x"})"),
              "unknown machine 'x' (valid: i9, xeon, arm)");
    EXPECT_EQ(message(R"({"verb":"sweep","suite":"x"})"),
              "unknown suite 'x' (valid: dotnet, aspnet, spec)");
    EXPECT_EQ(message(R"({"verb":"sweep","suite":"spec","machine":"arm"})"),
              "(accepted)");
}

TEST(Protocol, EveryVerbNameParsesBackToItsVerb)
{
    for (const Verb verb : {Verb::Ping, Verb::Run, Verb::Sweep,
                            Verb::Subset, Verb::Stats, Verb::Shutdown}) {
        const std::string name(verbName(verb));
        EXPECT_EQ(verbNamed(name), verb) << name;
        EXPECT_EQ(parseRequest(R"({"verb":")" + name +
                               R"(","benchmark":"SeekUnroll",)"
                               R"("suite":"spec"})")
                      .verb,
                  verb)
            << name;
    }
    EXPECT_EQ(verbNamed("Ping"), std::nullopt);
    try {
        parseRequest(R"({"verb":"frobnicate"})");
        FAIL() << "unknown verb accepted";
    } catch (const ProtocolError &ex) {
        EXPECT_STREQ(ex.what(),
                     "unknown verb 'frobnicate' (valid: ping, run, "
                     "sweep, subset, stats, shutdown)");
    }
}

TEST(Protocol, ServerAnswersMalformedLinesWithStructuredErrors)
{
    Server server(ServerOptions{});
    for (const char *bad :
         {"", "not json", "[1,2,3]", R"({"verb":"run"})",
          R"({"verb":"run","benchmark":"NoSuchBenchmark"})",
          R"({"verb":"run","benchmark":"SeekUnroll","bogus":1})"}) {
        const std::string response = server.handleLine(bad);
        JsonValue doc;
        std::string err;
        ASSERT_TRUE(parseJson(response, doc, err))
            << "unparseable error response for: " << bad;
        ASSERT_NE(doc.find("ok"), nullptr);
        EXPECT_FALSE(doc.find("ok")->boolean) << bad;
        ASSERT_NE(doc.find("error"), nullptr);
        EXPECT_TRUE(doc.find("error")->isString());
    }
    EXPECT_FALSE(server.stopping());
}

TEST(Protocol, BatchedDuplicateRunsShareOneComputation)
{
    Server server(ServerOptions{});
    const std::string line =
        R"({"verb":"run","benchmark":"SeekUnroll",)"
        R"("options":{"warmup":20000,"measure":40000}})";
    const auto responses =
        server.handleBatch({line, line, "bad", line});
    ASSERT_EQ(responses.size(), 4u);
    // All three identical requests answer with identical bytes.
    EXPECT_EQ(responses[0], responses[1]);
    EXPECT_EQ(responses[0], responses[3]);
    EXPECT_EQ(server.cacheCounters().inserts, 1u);
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(responses[2], doc, err)) << err;
    EXPECT_FALSE(doc.find("ok")->boolean);
}

TEST(Protocol, BatchFanOutMatchesSerial)
{
    // One batch of four distinct misses and in-batch duplicates,
    // computed on one thread and fanned out over four, with the cache
    // persisted: responses, cache counters and journal bytes match.
    const auto run = [](const std::string &benchmark, int seed) {
        return R"({"verb":"run","benchmark":")" + benchmark +
               R"(","options":{"warmup":20000,"measure":40000,)"
               R"("seed":)" + std::to_string(seed) + "}}";
    };
    const std::vector<std::string> lines = {
        run("SeekUnroll", 1),   run("System.Linq", 1),
        run("SeekUnroll", 1),   run("SeekUnroll", 2),
        run("System.Text", 3),  run("System.Linq", 1),
        run("SeekUnroll", 2),
    };
    struct Outcome
    {
        std::vector<std::string> responses;
        CacheCounters cache;
        std::string journal;
    };
    const auto answer = [&](unsigned jobs) {
        const std::string persist = testing::TempDir() +
            "netchar_fanout_" + std::to_string(jobs) + ".bin";
        const std::string journal = persist + ".journal";
        std::remove(journal.c_str());
        Outcome out;
        {
            ServerOptions sopts;
            sopts.listen = "127.0.0.1:0";
            sopts.persistPath = persist;
            sopts.jobs = jobs;
            Server server(sopts);
            std::string error;
            EXPECT_TRUE(server.start(error)) << error;
            out.responses = server.handleBatch(lines);
            out.cache = server.cacheCounters();
        }
        std::ifstream in(journal, std::ios::binary);
        out.journal.assign(std::istreambuf_iterator<char>(in), {});
        std::remove(journal.c_str());
        return out;
    };
    const Outcome serial = answer(1);
    const Outcome fanned = answer(4);

    ASSERT_EQ(serial.responses.size(), lines.size());
    for (const std::string &r : serial.responses)
        EXPECT_EQ(r.rfind(R"({"ok":true,)", 0), 0u) << r;
    EXPECT_EQ(serial.cache.inserts, 4u);
    EXPECT_EQ(serial.responses, fanned.responses);
    EXPECT_EQ(serial.cache.hits, fanned.cache.hits);
    EXPECT_EQ(serial.cache.misses, fanned.cache.misses);
    EXPECT_EQ(serial.cache.evictions, fanned.cache.evictions);
    EXPECT_EQ(serial.cache.inserts, fanned.cache.inserts);
    EXPECT_EQ(serial.cache.entries, fanned.cache.entries);
    EXPECT_EQ(serial.cache.bytes, fanned.cache.bytes);
    EXPECT_FALSE(serial.journal.empty());
    EXPECT_EQ(serial.journal, fanned.journal);
}

// -- sharding & merge ---------------------------------------------

TEST(Shard, IndicesPartitionTheSuite)
{
    std::vector<bool> covered(17, false);
    for (unsigned s = 0; s < 3; ++s) {
        for (const std::size_t k : shardIndices(17, s, 3)) {
            ASSERT_LT(k, 17u);
            EXPECT_FALSE(covered[k]);
            covered[k] = true;
            EXPECT_EQ(k % 3, s);
        }
    }
    for (const bool c : covered)
        EXPECT_TRUE(c);
    EXPECT_TRUE(shardIndices(0, 0, 4).empty());
    EXPECT_TRUE(shardIndices(2, 3, 4).empty());
}

TEST(Shard, SpecParsing)
{
    unsigned shard = 9, shards = 9;
    std::string error;
    EXPECT_TRUE(parseShardSpec("1/4", shard, shards, error));
    EXPECT_EQ(shard, 1u);
    EXPECT_EQ(shards, 4u);
    EXPECT_FALSE(parseShardSpec("4/4", shard, shards, error));
    EXPECT_FALSE(parseShardSpec("0/0", shard, shards, error));
    EXPECT_FALSE(parseShardSpec("nope", shard, shards, error));
    EXPECT_FALSE(parseShardSpec("1", shard, shards, error));
    EXPECT_FALSE(parseShardSpec("1/x", shard, shards, error));
    // Both numbers follow the one number rule: no wrap past 2^32, no
    // sign, no whitespace.
    EXPECT_FALSE(parseShardSpec("4294967297/4294967298", shard, shards,
                                error));
    EXPECT_EQ(error, "shard spec '4294967297/4294967298' must look "
                     "like i/n");
    EXPECT_FALSE(parseShardSpec(" 1/2", shard, shards, error));
    EXPECT_FALSE(parseShardSpec("+1/ 2", shard, shards, error));
    EXPECT_FALSE(parseShardSpec("1/2/3", shard, shards, error));
    EXPECT_EQ(shard, 1u);
    EXPECT_EQ(shards, 4u);
}

TEST(Shard, SweepBodyRoundTrip)
{
    SweepPartial partial;
    partial.suite = "dotnet";
    partial.format = "csv";
    partial.shard = 1;
    partial.shards = 2;
    partial.suiteSize = 4;
    partial.header = "benchmark,ipc";
    partial.rows.push_back({1, "B", "B,1.5"});
    partial.rows.push_back({3, "D", "D,0.5"});
    RunFailure fail;
    fail.index = 3;
    fail.benchmark = "D";
    fail.attempt = 1;
    fail.kind = "throw";
    fail.seed = 11;
    fail.backoffMicros = 250;
    fail.error = "injected \"quote\"";
    partial.failures.push_back(fail);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(sweepBodyJson(partial), doc, err)) << err;
    SweepPartial back;
    ASSERT_TRUE(parseSweepBody(doc, back, err)) << err;
    EXPECT_EQ(back.suite, "dotnet");
    EXPECT_EQ(back.shard, 1u);
    EXPECT_EQ(back.suiteSize, 4u);
    ASSERT_EQ(back.rows.size(), 2u);
    EXPECT_EQ(back.rows[1].index, 3u);
    EXPECT_EQ(back.rows[1].text, "D,0.5");
    ASSERT_EQ(back.failures.size(), 1u);
    EXPECT_EQ(back.failures[0].error, "injected \"quote\"");
    EXPECT_EQ(back.failures[0].backoffMicros, 250u);
}

TEST(Shard, SweepBodyBytesArePinned)
{
    // The round trip above cannot see a change both sides share, so
    // the rendered bytes are pinned too: escapes in `error`, a seed
    // above 2^63 and a non-zero backoff.
    SweepPartial partial;
    partial.suite = "dotnet";
    partial.format = "csv";
    partial.shard = 1;
    partial.shards = 3;
    partial.suiteSize = 5;
    partial.header = "benchmark,ipc";
    partial.rows.push_back({1, "B", "B,1.5"});
    partial.rows.push_back({4, "E", "\"E,x\",0.25"});
    RunFailure fail;
    fail.index = 4;
    fail.benchmark = "E";
    fail.attempt = 2;
    fail.kind = "throw";
    fail.seed = 13319558431009543222u;
    fail.backoffMicros = 400;
    fail.error = "a \"quote\", a back\\slash and a \x01 control\n";
    partial.failures.push_back(fail);
    fail.attempt = 3;
    fail.kind = "skipped";
    fail.seed = 1;
    fail.backoffMicros = 0;
    fail.error = "tab\there";
    partial.failures.push_back(fail);

    const std::string body = sweepBodyJson(partial);
    EXPECT_EQ(contentHashHex(body), "fdd9ca4982466af1b94c89f673f9c185")
        << body;
}

/** A one-shard csv sweep body with one row; the shard, suiteSize
 *  and row index are spliced in as raw JSON number text. */
std::string
sweepBodyText(const std::string &shard, const std::string &suiteSize,
              const std::string &rowIndex)
{
    return R"({"suite":"spec","format":"csv","shard":)" + shard +
           R"(,"shards":1,"suiteSize":)" + suiteSize +
           R"(,"header":"h","rows":[{"index":)" + rowIndex +
           R"(,"benchmark":"A","text":"A,1"}],"failures":[]})";
}

/** parseSweepBody over `text`; false with `error` set on rejection. */
bool
parseSweepText(const std::string &text, SweepPartial &partial,
               std::string &error)
{
    JsonValue doc;
    return parseJson(text, doc, error) &&
           parseSweepBody(doc, partial, error);
}

TEST(Shard, SweepBodyRejectsAnOverflowingSuiteSize)
{
    // 1e300 used to saturate to 0 and merge into an empty sweep.
    SweepPartial partial;
    std::string error;
    EXPECT_FALSE(parseSweepText(sweepBodyText("0", "1e300", "0"),
                                partial, error));
    EXPECT_EQ(error, "sweep body: missing or bad count 'suiteSize'");
}

TEST(Shard, MergeRejectsASuiteSizeBeyondItsRows)
{
    // A whole number, so it parses; the merge must refuse it before
    // sizing its index table by it (that threw std::bad_alloc).
    SweepPartial partial;
    std::string merged, error;
    ASSERT_TRUE(parseSweepText(sweepBodyText("0", "1e12", "0"), partial,
                               error))
        << error;
    EXPECT_EQ(partial.suiteSize, 1000000000000u);
    EXPECT_FALSE(mergeSweep({partial}, merged, error));
    EXPECT_EQ(error,
              "merge: partials carry 1 row(s) for a suite of "
              "1000000000000");
}

TEST(Shard, SweepBodyRejectsAShardPastUnsigned)
{
    // 2^32 used to truncate to shard 0.
    SweepPartial partial;
    std::string error;
    EXPECT_FALSE(parseSweepText(sweepBodyText("4294967296", "1", "0"),
                                partial, error));
    EXPECT_EQ(error, "sweep body: missing or bad count 'shard'");
}

TEST(Shard, SweepBodyRejectsAFractionalRowIndex)
{
    // 0.5 used to be accepted as row 0.
    SweepPartial partial;
    std::string error;
    EXPECT_FALSE(parseSweepText(sweepBodyText("0", "1", "0.5"), partial,
                                error));
    EXPECT_EQ(error, "sweep body: missing or bad count 'index'");
}

TEST(Shard, SweepBodyKeepsFullRangeSeeds)
{
    // A retry's seed is a splitmix64 output, almost always above the
    // 1e18 bound on other counts; its failure must still parse and
    // merge (it used to refuse the whole sweep body).
    const std::uint64_t retrySeed = perturbedSeed(1, "A", 2);
    const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
    ASSERT_GT(retrySeed, 1000000000000000000u);
    ASSERT_LT(static_cast<double>(retrySeed), 0x1p64);
    SweepPartial partial;
    partial.suite = "spec";
    partial.format = "csv";
    partial.shards = 1;
    partial.suiteSize = 1;
    partial.header = "h";
    partial.rows.push_back({0, "A", "A,1"});
    RunFailure fail;
    fail.benchmark = "A";
    fail.attempt = 2;
    fail.kind = "throw";
    fail.seed = retrySeed;
    fail.error = "injected";
    partial.failures.push_back(fail);
    fail.attempt = 3;
    fail.seed = top;
    partial.failures.push_back(fail);

    SweepPartial back;
    std::string merged, error;
    ASSERT_TRUE(parseSweepText(sweepBodyJson(partial), back, error))
        << error;
    ASSERT_EQ(back.failures.size(), 2u);
    // Seeds arrive exactly, not as their nearest double.
    ASSERT_NE(static_cast<std::uint64_t>(static_cast<double>(retrySeed)),
              retrySeed);
    EXPECT_EQ(back.failures[0].seed, retrySeed);
    EXPECT_EQ(back.failures[1].seed, top);
    ASSERT_TRUE(mergeSweep({back}, merged, error)) << error;
    EXPECT_EQ(merged, "h\nA,1\n");
    const auto ledger = mergeLedgers({back});
    ASSERT_EQ(ledger.failures.size(), 2u);
    EXPECT_EQ(ledger.failures[0].seed, retrySeed);
    EXPECT_EQ(ledger.failures[1].seed, top);

    // Past 2^64 - 1, not a plain integer, fractional or negative is
    // refused.
    const std::string body = sweepBodyJson(partial);
    const std::string topText = std::to_string(top);
    for (const std::string bad :
         {"18446744073709551616", "1e20", "1e3", "0.5", "-1"}) {
        std::string text = body;
        text.replace(text.find(topText), topText.size(), bad);
        EXPECT_FALSE(parseSweepText(text, back, error)) << bad;
        EXPECT_EQ(error, "sweep body: missing or bad count 'seed'");
    }
}

TEST(Shard, MergeRejectsIncompleteOrMixedPartials)
{
    SweepPartial p0;
    p0.suite = "dotnet";
    p0.format = "csv";
    p0.shard = 0;
    p0.shards = 2;
    p0.suiteSize = 2;
    p0.header = "h";
    p0.rows.push_back({0, "A", "A,1"});
    SweepPartial p1 = p0;
    p1.shard = 1;
    p1.rows = {{1, "B", "B,2"}};

    std::string merged, error;
    EXPECT_FALSE(mergeSweep({p0}, merged, error)); // missing shard
    EXPECT_FALSE(mergeSweep({p0, p0}, merged, error)); // duplicate
    SweepPartial mixed = p1;
    mixed.suite = "spec";
    EXPECT_FALSE(mergeSweep({p0, mixed}, merged, error));
    ASSERT_TRUE(mergeSweep({p1, p0}, merged, error)) << error;
    EXPECT_EQ(merged, "h\nA,1\nB,2\n");
}

TEST(Shard, MergedLedgerSortsByIndexThenAttempt)
{
    SweepPartial p0, p1;
    p0.shards = p1.shards = 2;
    p1.shard = 1;
    RunFailure f;
    f.benchmark = "X";
    f.index = 5;
    f.attempt = 2;
    p1.failures.push_back(f);
    f.index = 2;
    f.attempt = 1;
    p1.failures.push_back(f);
    f.index = 5;
    f.attempt = 1;
    p0.failures.push_back(f);
    const SuiteRunStats stats = mergeLedgers({p0, p1});
    ASSERT_EQ(stats.failures.size(), 3u);
    EXPECT_EQ(stats.failures[0].index, 2u);
    EXPECT_EQ(stats.failures[1].index, 5u);
    EXPECT_EQ(stats.failures[1].attempt, 1u);
    EXPECT_EQ(stats.failures[2].attempt, 2u);
}

/** Shard-merge vs single-process, in process, for one machine. */
void
expectShardMergeMatchesSingleProcess(const std::string &machine)
{
    const std::string options =
        R"("options":{"warmup":20000,"measure":40000})";
    const std::string line = R"({"verb":"sweep","suite":"dotnet",)"
                             R"("machine":")" +
                             machine + R"(","format":"csv",)" +
                             options + "}";
    std::vector<SweepPartial> partials;
    for (unsigned s = 0; s < 2; ++s) {
        ServerOptions sopts;
        sopts.shard = s;
        sopts.shards = 2;
        Server server(sopts);
        const std::string response = server.handleLine(line);
        JsonValue doc;
        std::string err;
        ASSERT_TRUE(parseJson(response, doc, err)) << err;
        ASSERT_NE(doc.find("ok"), nullptr);
        ASSERT_TRUE(doc.find("ok")->boolean) << response;
        SweepPartial partial;
        ASSERT_TRUE(
            parseSweepBody(*doc.find("body"), partial, err))
            << err;
        partials.push_back(std::move(partial));
    }
    std::string merged, error;
    ASSERT_TRUE(mergeSweep(partials, merged, error)) << error;

    // Single-process reference: the same bytes `netchar suite`
    // prints.
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
        << "shard merge diverged on machine " << machine;
    EXPECT_TRUE(mergeLedgers(partials).failures.empty());
}

TEST(Shard, MergeMatchesSingleProcessI9)
{
    expectShardMergeMatchesSingleProcess("i9");
}

TEST(Shard, MergeMatchesSingleProcessXeon)
{
    expectShardMergeMatchesSingleProcess("xeon");
}

TEST(Shard, MergeMatchesSingleProcessArm)
{
    expectShardMergeMatchesSingleProcess("arm");
}

// -- end to end over a real socket --------------------------------

TEST(Socket, ConcurrentClientsGetConsistentAnswers)
{
    ServerOptions sopts;
    sopts.listen = "127.0.0.1:0";
    sopts.jobs = 2;
    Server server(sopts);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    constexpr unsigned kClients = 3;
    const std::string run_line =
        R"({"verb":"run","benchmark":"SeekUnroll",)"
        R"("options":{"warmup":20000,"measure":40000}})";
    std::vector<std::string> bodies(kClients);
    std::vector<std::string> failures(kClients);
    std::atomic<unsigned> done{0};

    // Task 0 is the daemon; tasks 1..N are clients. The last client
    // to finish sends the shutdown that ends task 0.
    Executor executor(kClients + 1);
    executor.forEach(kClients + 1, [&](std::size_t task) {
        if (task == 0) {
            server.serve();
            return;
        }
        const std::size_t c = task - 1;
        ClientOptions copts;
        copts.address = server.address();
        copts.maxAttempts = 20;
        copts.backoffBaseMicros = 1000;
        Client client(copts);
        std::string response, err;
        if (!client.request(R"({"verb":"ping"})", response, err) ||
            response.find("pong") == std::string::npos) {
            failures[c] = "ping: " + err;
        } else if (!client.request(run_line, response, err)) {
            failures[c] = "run: " + err;
        } else {
            const auto pos = response.find(",\"body\":");
            bodies[c] = pos == std::string::npos
                            ? "(no body)"
                            : response.substr(pos);
        }
        if (done.fetch_add(1) + 1 == kClients) {
            std::string bye;
            EXPECT_TRUE(client.request(R"({"verb":"shutdown"})", bye,
                                       err))
                << err;
        }
    });

    for (unsigned c = 0; c < kClients; ++c)
        EXPECT_EQ(failures[c], "") << "client " << c;
    for (unsigned c = 1; c < kClients; ++c)
        EXPECT_EQ(bodies[0], bodies[c])
            << "client " << c << " saw different bytes";
    EXPECT_TRUE(server.stopping());
    const CacheCounters &cc = server.cacheCounters();
    EXPECT_GE(cc.inserts, 1u);
    EXPECT_EQ(cc.hits + cc.misses,
              static_cast<std::uint64_t>(kClients));
}

TEST(Socket, PersistedCacheServesHitsAcrossRestart)
{
    const std::string path =
        testing::TempDir() + "netchar_serve_persist.bin";
    // The cache lives in the journal beside `path`: a journal left by
    // an earlier run would turn the first request into a hit.
    const std::string journal = path + ".journal";
    std::remove(path.c_str());
    std::remove(journal.c_str());
    const std::string line =
        R"({"verb":"run","benchmark":"SeekUnroll",)"
        R"("options":{"warmup":20000,"measure":40000}})";
    std::string first_response;
    {
        ServerOptions sopts;
        sopts.listen = "127.0.0.1:0";
        sopts.persistPath = path;
        Server server(sopts);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;
        first_response = server.handleLine(line);
        Executor executor(2);
        executor.forEach(2, [&](std::size_t task) {
            if (task == 0) {
                server.serve();
                return;
            }
            ClientOptions copts;
            copts.address = server.address();
            copts.maxAttempts = 20;
            Client client(copts);
            std::string response, err;
            EXPECT_TRUE(client.request(R"({"verb":"shutdown"})", response,
                                       err))
                << err;
        });
    }
    ServerOptions sopts;
    sopts.listen = "127.0.0.1:0";
    sopts.persistPath = path;
    Server reborn(sopts);
    std::string error;
    ASSERT_TRUE(reborn.start(error)) << error;
    const std::string cached = reborn.handleLine(line);
    JsonValue doc;
    ASSERT_TRUE(parseJson(first_response, doc, error)) << error;
    ASSERT_NE(doc.find("cache"), nullptr) << first_response;
    EXPECT_EQ(doc.find("cache")->string, "miss");
    ASSERT_TRUE(parseJson(cached, doc, error)) << error;
    ASSERT_NE(doc.find("cache"), nullptr) << cached;
    EXPECT_EQ(doc.find("cache")->string, "hit");
    // Byte-identical body across the restart.
    EXPECT_EQ(cached.substr(cached.find(",\"body\":")),
              first_response.substr(first_response.find(",\"body\":")));
    std::remove(path.c_str());
    std::remove(journal.c_str());
}

TEST(Socket, UnixPathServesAndSharesAddressErrors)
{
    // An address with a '/' is a Unix socket path; the daemon
    // reports it, and clients reach it, as given.
    const std::string path =
        testing::TempDir() + "netchar_serve_unix.sock";
    std::remove(path.c_str());
    ServerOptions sopts;
    sopts.listen = path;
    Server server(sopts);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    EXPECT_EQ(server.address(), path);
    EXPECT_TRUE(std::filesystem::exists(path));

    std::string pong, run, pingError, runError;
    Executor executor(2);
    executor.forEach(2, [&](std::size_t task) {
        if (task == 0) {
            server.serve();
            return;
        }
        ClientOptions copts;
        copts.address = path;
        copts.maxAttempts = 20;
        Client client(copts);
        EXPECT_TRUE(client.request(R"({"verb":"ping"})", pong, pingError))
            << pingError;
        EXPECT_TRUE(client.request(
            R"({"verb":"run","benchmark":"SeekUnroll",)"
            R"("options":{"warmup":20000,"measure":40000}})",
            run, runError))
            << runError;
        std::string bye, err;
        EXPECT_TRUE(client.request(R"({"verb":"shutdown"})", bye,
                                   err))
            << err;
    });
    EXPECT_EQ(pingError, "");
    EXPECT_EQ(runError, "");
    EXPECT_EQ(pong, R"({"ok":true,"verb":"ping","body":"pong"})");
    EXPECT_EQ(run.rfind(R"({"ok":true,"verb":"run","cache":"miss",)", 0),
              0u)
        << run;
    EXPECT_TRUE(server.stopping());
    // serve() unlinked the socket on its way out.
    EXPECT_FALSE(std::filesystem::exists(path));

    // One parser, one wording: the daemon and the client refuse each
    // malformed address with the same message.
    const std::string longPath = "/" + std::string(200, 'x');
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"127.0.0.1:65536", "bad port in address '127.0.0.1:65536'"},
        {"127.0.0.1:+80", "bad port in address '127.0.0.1:+80'"},
        {"127.0.0.1:http", "bad port in address '127.0.0.1:http'"},
        {"localhost:80", "bad host in address 'localhost:80'"},
        {longPath, "socket path '" + longPath + "' too long"},
    };
    for (const auto &[address, message] : bad) {
        ServerOptions badOptions;
        badOptions.listen = address;
        Server badServer(badOptions);
        std::string serverError;
        EXPECT_FALSE(badServer.start(serverError)) << address;
        EXPECT_EQ(serverError, message);

        ClientOptions copts;
        copts.address = address;
        copts.maxAttempts = 1;
        // Should a bad address connect, the request times out.
        copts.ioTimeoutMs = 2000;
        Client client(copts);
        std::string response, clientError;
        EXPECT_FALSE(client.request(R"({"verb":"ping"})", response,
                                    clientError))
            << address;
        EXPECT_EQ(clientError, message);
    }
}

TEST(Socket, ClientRetriesThenReportsConnectFailure)
{
    ClientOptions copts;
    copts.address = "127.0.0.1:1"; // nothing listens here
    copts.maxAttempts = 3;
    copts.backoffBaseMicros = 10;
    Client client(copts);
    std::string response, error;
    EXPECT_FALSE(client.request(R"({"verb":"ping"})", response,
                                error));
    EXPECT_NE(error.find("connect"), std::string::npos);
}

// -- golden response digests ---------------------------------------

// Pins the exact bytes of the sweep (CSV and JSON) and subset
// responses. A deliberate behaviour change re-records the constants
// in the same change and says so; any other drift is a regression.
TEST(GoldenDigest, SweepAndSubsetResponses)
{
    ServerOptions sopts;
    sopts.jobs = 2; // sweep bytes are the same at any job count
    Server server(sopts);
    const std::string options =
        R"("machine":"i9","options":{"warmup":20000,"measure":40000})";
    const std::vector<std::string> requests = {
        R"({"verb":"sweep","suite":"spec",)" + options + "}",
        R"({"verb":"sweep","suite":"spec","format":"json",)" + options +
            "}",
        R"({"verb":"subset","suite":"spec","size":4,)" + options + "}",
    };
    const char *golden[] = {
        "af12e58e41221a7b30d4c97e79429b6b",
        "36302c4457cc3d37543bcd8acca1bd02",
        "6ee62d7196c6c9362761a4d94ec5c1c7",
    };
    const auto responses = server.handleBatch(requests);
    ASSERT_EQ(responses.size(), requests.size());
    for (std::size_t i = 0; i < responses.size(); ++i) {
        EXPECT_EQ(responses[i].rfind(R"({"ok":true,)", 0), 0u)
            << responses[i];
        EXPECT_EQ(contentHashHex(responses[i]), golden[i])
            << "request: " << requests[i] << "\nresponse:\n"
            << responses[i];
    }
}

TEST(GoldenDigest, TwoShardSweepMerge)
{
    // Shards 0/2 and 1/2 of the sweep above, merged as `netchar
    // query --merge` does, give the bytes of the unsharded response
    // merged the same way, in both formats; the merged bytes are
    // pinned as well.
    const std::string options =
        R"("machine":"i9","options":{"warmup":20000,"measure":40000})";
    const auto partialOf = [](const std::string &response) {
        JsonValue doc;
        std::string error;
        SweepPartial partial;
        EXPECT_TRUE(parseJson(response, doc, error)) << error;
        const JsonValue *body = doc.find("body");
        EXPECT_NE(body, nullptr) << response;
        if (body != nullptr) {
            EXPECT_TRUE(parseSweepBody(*body, partial, error)) << error;
        }
        return partial;
    };
    const struct
    {
        const char *format;
        const char *golden;
    } cases[] = {
        {"csv", "ec2c5ed30e9535d547c01add29877651"},
        {"json", "d092584d87d87d05c4741eafb6d3b395"},
    };
    for (const auto &c : cases) {
        const std::string line =
            R"({"verb":"sweep","suite":"spec","format":")" +
            std::string(c.format) + R"(",)" + options + "}";
        std::vector<SweepPartial> shards;
        for (unsigned s = 0; s < 2; ++s) {
            ServerOptions sopts;
            sopts.jobs = 2;
            sopts.shard = s;
            sopts.shards = 2;
            Server server(sopts);
            shards.push_back(partialOf(server.handleLine(line)));
        }
        ServerOptions wholeOpts;
        wholeOpts.jobs = 2;
        Server whole(wholeOpts);
        std::string merged, reference, error;
        ASSERT_TRUE(mergeSweep(shards, merged, error)) << error;
        ASSERT_TRUE(mergeSweep({partialOf(whole.handleLine(line))},
                               reference, error))
            << error;
        EXPECT_EQ(merged, reference) << c.format;
        EXPECT_EQ(contentHashHex(merged), c.golden) << c.format;
    }
}

} // namespace
} // namespace netchar::serve
