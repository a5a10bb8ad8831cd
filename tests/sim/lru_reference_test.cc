/**
 * @file
 * Reference-model test for every tagged structure in sim/: seeded
 * random streams drive each structure and a naive list-based
 * true-LRU model side by side, and every outcome must agree. This is
 * the eviction-order check for interleaved fills, installs, prefetch
 * inserts and invalidations, which the golden digests reach only
 * rarely at their small budgets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <optional>
#include <vector>

#include "sim/branch.hh"
#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/frontend.hh"
#include "sim/lru_sets.hh"
#include "sim/noc.hh"
#include "sim/prefetch.hh"
#include "sim/tlb.hh"
#include "stats/rng.hh"

namespace netchar::sim
{
namespace
{

/** Naive true LRU: one list per set (tag % sets), most recent first. */
template <typename Data = int>
struct RefLru
{
    struct Line
    {
        std::uint64_t tag;
        Data data;
    };

    RefLru(std::size_t num_sets, std::size_t num_ways)
        : ways(num_ways), sets(num_sets)
    {
    }

    std::list<Line> &setOf(std::uint64_t tag)
    {
        return sets[tag % sets.size()];
    }

    /** Probe without moving the line. */
    Line *find(std::uint64_t tag)
    {
        for (Line &l : setOf(tag))
            if (l.tag == tag)
                return &l;
        return nullptr;
    }

    /** Probe; a hit becomes most recent. */
    Line *touch(std::uint64_t tag)
    {
        auto &s = setOf(tag);
        for (auto it = s.begin(); it != s.end(); ++it) {
            if (it->tag == tag) {
                s.splice(s.begin(), s, it);
                return &s.front();
            }
        }
        return nullptr;
    }

    /** Insert as most recent; returns the line evicted from a full set. */
    std::optional<Line> insert(std::uint64_t tag, Data data)
    {
        auto &s = setOf(tag);
        std::optional<Line> evicted;
        if (s.size() == ways) {
            evicted = s.back();
            s.pop_back();
        }
        s.push_front({tag, data});
        return evicted;
    }

    bool accessAndFill(std::uint64_t tag)
    {
        if (touch(tag) != nullptr)
            return true;
        if (ways > 0)
            insert(tag, Data{});
        return false;
    }

    void clear()
    {
        for (auto &s : sets)
            s.clear();
    }

    std::size_t ways;
    std::vector<std::list<Line>> sets;
};

constexpr int kOps = 4000;

struct LineState
{
    bool dirty = false;
    bool prefetched = false;
};

void
checkCache(const CacheGeometry &geom, std::uint64_t seed)
{
    Cache cache(geom);
    const std::size_t sets = cache.numSets();
    RefLru<LineState> ref(sets, geom.associativity);
    stats::Rng s(seed);
    // Twice the capacity in distinct lines: hits and evictions both.
    const std::uint64_t lines = 2 * sets * geom.associativity;
    for (int op = 0; op < kOps; ++op) {
        const std::uint64_t line = s.below(lines);
        const std::uint64_t addr =
            line * geom.lineBytes + s.below(geom.lineBytes);
        const std::uint64_t kind = s.below(100);
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " op " << op << " kind "
                     << kind << " line " << line);
        CacheOutcome want;
        CacheOutcome got;
        if (kind < 70) {
            const bool write = kind >= 45;
            got = cache.access(addr, write);
            if (auto *l = ref.touch(line)) {
                want.hit = true;
                want.hitOnPrefetch = l->data.prefetched;
                l->data.prefetched = false;
                l->data.dirty = l->data.dirty || write;
            } else if (auto ev = ref.insert(line, {write, false})) {
                want.evictedUnusedPrefetch = ev->data.prefetched;
                want.writeback = ev->data.dirty;
            }
        } else if (kind < 90) {
            got = cache.insertPrefetch(addr);
            if (ref.find(line) == nullptr) {
                if (auto ev = ref.insert(line, {false, true})) {
                    want.evictedUnusedPrefetch = ev->data.prefetched;
                    want.writeback = ev->data.dirty;
                }
            }
        } else if (kind < 99) {
            ASSERT_EQ(cache.contains(addr), ref.find(line) != nullptr);
            continue;
        } else {
            cache.invalidateAll();
            ref.clear();
            continue;
        }
        ASSERT_EQ(got.hit, want.hit);
        ASSERT_EQ(got.hitOnPrefetch, want.hitOnPrefetch);
        ASSERT_EQ(got.evictedUnusedPrefetch, want.evictedUnusedPrefetch);
        ASSERT_EQ(got.writeback, want.writeback);
    }
}

TEST(LruReference, CacheMatchesTheListModel)
{
    checkCache({2048, 4, 64}, 1);  // 8 sets x 4 ways
    checkCache({1536, 2, 64}, 2);  // 12 sets: not a power of two
    checkCache({512, 8, 64}, 3);   // one fully associative set
    checkCache({1024, 1, 32}, 4);  // direct mapped
}

void
checkTlbHierarchy(const TlbGeometry &l1, const TlbGeometry &stlb,
                  std::uint64_t seed)
{
    TlbHierarchy tlb(l1, stlb);
    RefLru<> ref_l1(l1.entries / l1.associativity, l1.associativity);
    const bool has_stlb = stlb.entries > 0;
    RefLru<> ref_stlb(has_stlb ? stlb.entries / stlb.associativity : 1,
                      has_stlb ? stlb.associativity : 1);
    std::uint64_t walks = 0;
    std::uint64_t l1_misses = 0;
    stats::Rng s(seed);
    const std::uint64_t pages =
        2 * (has_stlb ? stlb.entries : l1.entries);
    for (int op = 0; op < kOps; ++op) {
        const std::uint64_t page = s.below(pages);
        const std::uint64_t addr =
            page * l1.pageBytes + s.below(l1.pageBytes);
        const std::uint64_t kind = s.below(100);
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " op "
                                          << op << " page " << page);
        if (kind < 85) {
            const TlbOutcome got = tlb.access(addr);
            TlbOutcome want;
            want.hit = ref_l1.accessAndFill(page);
            if (!want.hit) {
                ++l1_misses;
                want.stlbHit = has_stlb && ref_stlb.accessAndFill(page);
                if (!want.stlbHit)
                    ++walks;
            }
            ASSERT_EQ(got.hit, want.hit);
            ASSERT_EQ(got.stlbHit, want.stlbHit);
        } else if (kind < 99) {
            tlb.install(addr);
            ref_l1.accessAndFill(page);
            if (has_stlb)
                ref_stlb.accessAndFill(page);
        } else {
            tlb.invalidateAll();
            ref_l1.clear();
            ref_stlb.clear();
        }
        ASSERT_EQ(tlb.walks(), walks);
        ASSERT_EQ(tlb.l1Misses(), l1_misses);
    }
}

TEST(LruReference, TlbMatchesTheListModel)
{
    const TlbGeometry l1{16, 4, 4096};
    Tlb tlb(l1);
    RefLru<> ref(4, 4);
    stats::Rng s(5);
    for (int op = 0; op < kOps; ++op) {
        const std::uint64_t page = s.below(32);
        const std::uint64_t addr = page * 4096 + s.below(4096);
        const std::uint64_t kind = s.below(100);
        SCOPED_TRACE(::testing::Message() << "op " << op);
        if (kind < 70) {
            ASSERT_EQ(tlb.access(addr), ref.accessAndFill(page));
        } else if (kind < 85) {
            tlb.install(addr);
            ref.accessAndFill(page);
        } else if (kind < 99) {
            ASSERT_EQ(tlb.contains(addr), ref.find(page) != nullptr);
        } else {
            tlb.invalidateAll();
            ref.clear();
        }
    }
}

TEST(LruReference, TlbHierarchyMatchesTheListModel)
{
    checkTlbHierarchy({16, 4, 4096}, {48, 4, 4096}, 6);  // 12 STLB sets
    checkTlbHierarchy({8, 8, 4096}, {32, 2, 4096}, 7);
    checkTlbHierarchy({16, 2, 4096}, {0, 1, 4096}, 8);   // no STLB
}

TEST(LruReference, BtbMatchesTheListModel)
{
    for (const unsigned assoc : {1u, 4u}) {
        Btb btb(24, assoc);
        RefLru<> ref(24 / assoc, assoc);
        stats::Rng s(9 + assoc);
        for (int op = 0; op < kOps; ++op) {
            const std::uint64_t pc = s.below(64) * 4 + s.below(4);
            const std::uint64_t tag = pc >> 2;
            const std::uint64_t kind = s.below(100);
            SCOPED_TRACE(::testing::Message()
                         << "assoc " << assoc << " op " << op);
            if (kind < 70) {
                ASSERT_EQ(btb.accessAndFill(pc), ref.accessAndFill(tag));
            } else if (kind < 85) {
                btb.install(pc);
                ref.accessAndFill(tag);
            } else if (kind < 99) {
                ASSERT_EQ(btb.contains(pc), ref.find(tag) != nullptr);
            } else {
                btb.invalidateAll();
                ref.clear();
            }
        }
    }
}

TEST(LruReference, DsbMatchesTheListModel)
{
    struct Geometry
    {
        unsigned lines, assoc, sets, ways;
    };
    // {96, 8}: the Xeon DSB's 12 sets; {5, 8}: assoc clamped to the
    // line count; {0, 8}: a machine without a uop cache.
    for (const Geometry g : {Geometry{96, 8, 12, 8}, Geometry{32, 4, 8, 4},
                             Geometry{5, 8, 1, 5}, Geometry{0, 8, 1, 0}}) {
        Dsb dsb(g.lines, g.assoc);
        RefLru<> ref(g.sets, g.ways);
        std::uint64_t lookups = 0;
        std::uint64_t hits = 0;
        stats::Rng s(20 + g.lines);
        const std::uint64_t lines = 2 * g.lines + 4;
        for (int op = 0; op < kOps; ++op) {
            SCOPED_TRACE(::testing::Message()
                         << "lines " << g.lines << " op " << op);
            if (s.below(100) == 0) {
                dsb.invalidateAll();
                ref.clear();
                continue;
            }
            const std::uint64_t line = s.below(lines);
            const bool hit = ref.accessAndFill(line);
            ++lookups;
            hits += hit;
            ASSERT_EQ(dsb.accessAndFill(line), hit);
        }
        EXPECT_EQ(dsb.lookups(), lookups);
        EXPECT_EQ(dsb.hits(), hits);
    }
}

TEST(LruReference, LoopBufferMatchesTheListModel)
{
    for (const unsigned capacity : {0u, 1u, 4u, 7u}) {
        LoopBuffer lb(capacity);
        RefLru<> ref(1, capacity);
        stats::Rng s(30 + capacity);
        for (int op = 0; op < kOps; ++op) {
            SCOPED_TRACE(::testing::Message()
                         << "capacity " << capacity << " op " << op);
            if (s.below(100) == 0) {
                lb.invalidateAll();
                ref.clear();
                continue;
            }
            const std::uint64_t line = s.below(2 * capacity + 3);
            ASSERT_EQ(lb.accessAndFill(line), ref.accessAndFill(line));
        }
    }
}

/** Per-page stream state of the reference prefetcher. */
struct RefStream
{
    std::uint64_t lastLine = 0;
    int direction = 0;
    unsigned confidence = 0;
};

/** The documented stream-prefetcher rule over a list-based LRU table. */
std::vector<std::uint64_t>
refObserve(RefLru<RefStream> &table, const PrefetcherParams &p,
           std::uint64_t addr)
{
    const std::uint64_t line = addr / p.lineBytes;
    const std::uint64_t page = addr / p.pageBytes;
    auto *entry = table.touch(page);
    if (entry == nullptr) {
        table.insert(page, {line, 0, 0});
        return {};
    }
    RefStream &st = entry->data;
    if (line == st.lastLine)
        return {};
    const int dir = line > st.lastLine ? 1 : -1;
    if (dir == st.direction) {
        if (st.confidence < 255)
            ++st.confidence;
    } else {
        st.direction = dir;
        st.confidence = 1;
    }
    st.lastLine = line;
    std::vector<std::uint64_t> out;
    if (st.confidence < p.trainThreshold)
        return out;
    const std::uint64_t lines_per_page = p.pageBytes / p.lineBytes;
    for (unsigned i = 1; i <= p.degree; ++i) {
        const std::int64_t target = static_cast<std::int64_t>(line) +
                                    static_cast<std::int64_t>(i) * dir;
        if (target < 0)
            break;
        const auto tline = static_cast<std::uint64_t>(target);
        if (!p.crossPageHint && tline / lines_per_page != page)
            break;
        out.push_back(tline * p.lineBytes);
    }
    return out;
}

TEST(LruReference, StreamPrefetcherMatchesTheListModel)
{
    for (const bool cross : {false, true}) {
        PrefetcherParams p;
        p.streams = 4;
        p.degree = 3;
        p.trainThreshold = 2;
        p.crossPageHint = cross;
        p.pageBytes = 1024;
        p.lineBytes = 64;
        StreamPrefetcher pf(p);
        RefLru<RefStream> ref(1, p.streams);
        stats::Rng s(cross ? 41 : 40);
        // Short runs of strided accesses on a few pages, so streams
        // train, change direction, cross pages and get evicted.
        std::uint64_t addr = 0;
        for (int op = 0; op < kOps; ++op) {
            SCOPED_TRACE(::testing::Message()
                         << "cross " << cross << " op " << op);
            const std::uint64_t kind = s.below(100);
            if (kind < 15) {
                addr = s.below(10) * p.pageBytes + s.below(p.pageBytes);
            } else if (kind < 55) {
                addr += p.lineBytes;
            } else if (kind < 80) {
                addr = addr >= p.lineBytes ? addr - p.lineBytes : addr;
            } else if (kind < 99) {
                addr += s.below(8);
            } else {
                pf.reset();
                ref.clear();
                continue;
            }
            ASSERT_EQ(pf.observe(addr), refObserve(ref, p, addr));
        }
    }
}

TEST(LruReference, SetIndexIsTagModuloSets)
{
    // Power-of-two counts mask, the others divide; a zero-set store
    // has one set.
    for (const std::size_t sets : {1u, 2u, 64u, 2048u, 4096u, 12u, 0u}) {
        const LruSets<> store(sets, 4);
        stats::Rng s(50 + sets);
        for (int i = 0; i < kOps; ++i) {
            const std::uint64_t tag = s.next();
            ASSERT_EQ(store.setIndex(tag), tag % store.sets())
                << "sets " << sets << " tag " << tag;
        }
    }
}

/**
 * One seeded stream of accesses, prefetch inserts and probes through
 * two LLCs; every outcome must agree.
 */
void
expectSameLlc(LlcNoc &bulk, LlcNoc &loop,
              const std::vector<std::uint64_t> &lines, std::uint64_t seed)
{
    stats::Rng s(seed);
    for (int op = 0; op < 8 * kOps; ++op) {
        const std::uint64_t addr =
            lines[s.below(lines.size())] * 64 + s.below(64);
        const std::uint64_t kind = s.below(100);
        SCOPED_TRACE(::testing::Message()
                     << "op " << op << " kind " << kind << " addr "
                     << addr);
        if (kind < 60) {
            const bool write = kind >= 40;
            const double cycles = 10.0 * op;
            const LlcOutcome got = bulk.access(addr, write, cycles);
            const LlcOutcome want = loop.access(addr, write, cycles);
            ASSERT_EQ(got.hit, want.hit);
            ASSERT_EQ(got.evictedUnusedPrefetch,
                      want.evictedUnusedPrefetch);
            ASSERT_EQ(got.writeback, want.writeback);
            ASSERT_EQ(got.latency, want.latency);
        } else if (kind < 85) {
            const CacheOutcome got = bulk.insertPrefetch(addr);
            const CacheOutcome want = loop.insertPrefetch(addr);
            ASSERT_EQ(got.wasPresent, want.wasPresent);
            ASSERT_EQ(got.evictedUnusedPrefetch,
                      want.evictedUnusedPrefetch);
            ASSERT_EQ(got.writeback, want.writeback);
        } else {
            ASSERT_EQ(bulk.contains(addr), loop.contains(addr));
        }
    }
}

struct PreloadCase
{
    const char *name;
    /** Range length in LLC capacities. */
    double capacities;
    /** Pre-fill lines in the range's tail (the fallback). */
    bool residentTail;
    /** Preload the range a second time, as a second core would. */
    bool twice;
    /** Byte offset of the range's base into its first line. */
    std::uint64_t offset;
};

/**
 * LlcNoc::preload against the plain insertPrefetch loop it replaces,
 * on one machine's LLC. Each case pre-fills both copies with dirty,
 * demand-touched and prefetched lines, preloads, compares residency
 * over the range's tail, then drives one stream through both. The
 * streams concentrate on a few set indices, so their sets see
 * evictions in LRU order, dirty victims and prefetch hits.
 */
void
checkPreload(const MachineConfig &cfg, std::uint64_t seed)
{
    const std::uint64_t capacity = cfg.llc.sizeBytes / cfg.llc.lineBytes;
    const std::uint64_t sets =
        capacity / cfg.llcSlices / cfg.llc.associativity;
    const std::uint64_t base_line = std::uint64_t{1} << 28;
    const PreloadCase cases[] = {
        {"below capacity", 0.5, false, false, 0},
        {"at capacity", 1.0, false, false, 0},
        {"far above capacity", 4.0, false, false, 0},
        {"resident tail", 1.5, true, false, 0},
        {"same range twice", 1.5, false, true, 0},
        {"unaligned base", 1.25, false, false, 24},
    };
    stats::Rng s(seed);
    for (const PreloadCase &c : cases) {
        SCOPED_TRACE(::testing::Message()
                     << "llc " << cfg.name << " case " << c.name);
        LlcNoc bulk(cfg.llc, cfg.llcSlices, cfg.pipe.llcLatency);
        LlcNoc loop(cfg.llc, cfg.llcSlices, cfg.pipe.llcLatency);
        const auto range_lines = static_cast<std::uint64_t>(
            c.capacities * static_cast<double>(capacity));
        const std::uint64_t base = base_line * 64 + c.offset;
        const std::uint64_t bytes = range_lines * 64 - c.offset / 2;
        const std::uint64_t end_line = (base + bytes + 63) / 64;

        // Lines on eight set indices: some before the range, some
        // after it, and the last ones of the range itself.
        const std::size_t tail_per_set =
            3 * cfg.llcSlices * cfg.llc.associativity;
        std::vector<std::uint64_t> focus;
        std::vector<std::uint64_t> tail;
        for (int g = 0; g < 8; ++g) {
            const std::uint64_t set = s.below(sets);
            const std::uint64_t after = (end_line / sets + 1) * sets + set;
            for (std::uint64_t k = 0; k < 16 * cfg.llcSlices; ++k) {
                focus.push_back(set + k * sets);
                focus.push_back(after + k * sets);
            }
            std::vector<std::uint64_t> own;
            for (std::uint64_t l = base_line + set; l < end_line; l += sets)
                own.push_back(l);
            tail.insert(tail.end(),
                        own.end() - std::min(own.size(), tail_per_set),
                        own.end());
        }
        std::vector<std::uint64_t> prefill = focus;
        if (c.residentTail)
            prefill.insert(prefill.end(), tail.begin(), tail.end());
        for (int op = 0; op < 8 * kOps; ++op) {
            const std::uint64_t addr = prefill[s.below(prefill.size())] * 64;
            const std::uint64_t kind = s.below(3);
            if (kind == 2) {
                bulk.insertPrefetch(addr);
                loop.insertPrefetch(addr);
            } else {
                bulk.access(addr, kind == 1, 1.0);
                loop.access(addr, kind == 1, 1.0);
            }
        }

        for (int round = 0; round < (c.twice ? 2 : 1); ++round) {
            bulk.preload(base, bytes);
            for (std::uint64_t a = base & ~std::uint64_t{63};
                 a < base + bytes; a += 64)
                loop.insertPrefetch(a);
        }

        const std::uint64_t from =
            end_line - std::min(end_line - base_line, 2 * capacity);
        for (std::uint64_t l = from; l < end_line; ++l)
            ASSERT_EQ(bulk.contains(l * 64), loop.contains(l * 64))
                << "line " << l;
        std::vector<std::uint64_t> stream = focus;
        stream.insert(stream.end(), tail.begin(), tail.end());
        expectSameLlc(bulk, loop, stream, s.next());
    }
}

TEST(LruReference, LlcPreloadMatchesInsertLoop)
{
    checkPreload(MachineConfig::intelCoreI99980Xe(), 60); // 11 x 18
    checkPreload(MachineConfig::intelXeonE52620V4(), 61); // 20 x 8
    checkPreload(MachineConfig::armServer(), 62);         // 16 x 8
}

} // namespace
} // namespace netchar::sim
