/**
 * @file
 * The tag store marks an empty way in its tag array (it stores ~tag,
 * so a zeroed array is empty), and victim() relies on a set's
 * occupied ways being a prefix. Seeded streams of fills, insert-only
 * fills, hits, bulk write()s of whole sets and mid-stream clear()s
 * drive the store beside a list-based true-LRU model, at 1-20 ways
 * and power-of-two and other set counts. Every step checks that the
 * occupied ways are a prefix and that each victim is the model's.
 * Then the largest tag each structure can produce misses, fills and
 * hits, and the geometries that would make ~0 a tag are refused.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <list>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/branch.hh"
#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/frontend.hh"
#include "sim/lru_sets.hh"
#include "sim/prefetch.hh"
#include "sim/tlb.hh"
#include "stats/rng.hh"

namespace netchar::sim
{
namespace
{

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

/** Payload that names the fill that wrote a way. */
struct Mark
{
    std::uint64_t id = 0;
};

/** One set of the model: tags, most recently used first. */
using RefSet = std::list<std::uint64_t>;

/**
 * An LruSets<Mark> beside its model. Entries never move, so a way is
 * its entry's distance from the set's way 0, which victim() names
 * while the set is empty.
 */
class Checked
{
  public:
    Checked(std::size_t sets, std::size_t ways)
        : store_(sets, ways), ref_(store_.sets()), base_(store_.sets())
    {
        for (std::size_t s = 0; s < store_.sets(); ++s)
            base_[s] = &store_.victim(s);
    }

    std::size_t sets() const { return store_.sets(); }
    std::size_t ways() const { return store_.ways(); }

    /** Way index of `e`, an entry of set `set`. */
    std::size_t wayOf(std::size_t set, const LruSets<Mark>::Entry *e) const
    {
        return static_cast<std::size_t>(e - base_[set]);
    }

    /**
     * The set's occupied ways are its first ref-size ways, and its
     * victim is the first empty way or the model's least recent tag.
     */
    void expectSet(std::size_t set)
    {
        const RefSet &ref = ref_[set];
        std::vector<bool> seen(ways(), false);
        for (const std::uint64_t tag : ref) {
            const auto *e = store_.find(tag);
            ASSERT_NE(e, nullptr) << "set " << set << " tag " << tag;
            ASSERT_TRUE(store_.occupied(*e));
            const std::size_t way = wayOf(set, e);
            ASSERT_LT(way, ref.size()) << "set " << set << ": not a prefix";
            ASSERT_FALSE(seen[way]);
            seen[way] = true;
        }
        const auto &v = store_.victim(set);
        if (ref.size() < ways()) {
            ASSERT_EQ(wayOf(set, &v), ref.size()) << "set " << set;
            ASSERT_FALSE(store_.occupied(v));
        } else {
            ASSERT_EQ(&v, store_.find(ref.back())) << "set " << set;
        }
    }

    /** accessAndFill(): a hit moves the tag to the front. */
    void accessAndFill(std::uint64_t tag)
    {
        RefSet &ref = ref_[store_.setIndex(tag)];
        const auto it = std::find(ref.begin(), ref.end(), tag);
        ASSERT_EQ(store_.accessAndFill(tag), it != ref.end());
        if (it != ref.end())
            ref.erase(it);
        else if (ref.size() == ways())
            ref.pop_back();
        ref.push_front(tag);
    }

    /**
     * An insert-only fill, as Cache::insertPrefetch: find(), and on a
     * miss stamp() the victim; a held tag stays where it is.
     */
    void insert(std::uint64_t tag, std::uint64_t id)
    {
        RefSet &ref = ref_[store_.setIndex(tag)];
        const bool held = std::find(ref.begin(), ref.end(), tag) != ref.end();
        ASSERT_EQ(store_.find(tag) != nullptr, held);
        if (held)
            return;
        if (ref.size() == ways())
            ref.pop_back();
        ref.push_front(tag);
        store_.stamp(store_.victim(tag), tag, {id});
        ASSERT_EQ(store_.find(tag)->data.id, id);
    }

    /** Write every way of `set` with `tags`, oldest first. */
    void writeSet(std::size_t set, const std::vector<std::uint64_t> &tags)
    {
        const std::uint64_t first = store_.reserveStamps(ways());
        for (std::size_t w = 0; w < ways(); ++w)
            store_.write(set, w, tags[w], first + w, {tags[w]});
        ref_[set].assign(tags.rbegin(), tags.rend());
    }

    void clear()
    {
        store_.clear();
        for (RefSet &ref : ref_)
            ref.clear();
    }

    const RefSet &ref(std::size_t set) const { return ref_[set]; }

  private:
    LruSets<Mark> store_;
    std::vector<RefSet> ref_;
    std::vector<const LruSets<Mark>::Entry *> base_;
};

void
driveStore(std::size_t sets, std::size_t ways, std::uint64_t seed)
{
    SCOPED_TRACE(::testing::Message()
                 << sets << " sets x " << ways << " ways");
    Checked c(sets, ways);
    stats::Rng s(seed);
    // Tags spread over the sets, a few per way so sets fill and evict.
    const std::uint64_t universe = c.sets() * (ways + 3);
    for (int op = 0; op < 3000; ++op) {
        const std::uint64_t kind = s.below(100);
        if (kind < 40) {
            c.accessAndFill(s.below(universe));
        } else if (kind < 75) {
            c.insert(s.below(universe), static_cast<std::uint64_t>(op));
        } else if (kind < 97) {
            // A hit on a resident tag, as touch() from a probe.
            const std::size_t set = s.below(c.sets());
            if (!c.ref(set).empty())
                c.accessAndFill(c.ref(set).back());
        } else if (kind < 99) {
            const std::size_t set = s.below(c.sets());
            std::vector<std::uint64_t> tags;
            for (std::size_t w = 0; w < ways; ++w)
                tags.push_back(set + (universe + w) * c.sets());
            c.writeSet(set, tags);
        } else {
            c.clear();
        }
        if (::testing::Test::HasFatalFailure())
            return;
        for (std::size_t set = 0; set < c.sets(); ++set) {
            c.expectSet(set);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST(LruSetsEmptyWays, OccupiedWaysArePrefixAndVictimsMatchTheListModel)
{
    std::uint64_t seed = 90;
    for (const std::size_t sets : {1u, 4u, 12u, 16u, 3u})
        for (std::size_t ways = 1; ways <= 20; ++ways)
            driveStore(sets, ways, ++seed);
}

TEST(LruSetsEmptyWays, ZeroedStoreIsEmpty)
{
    // Before any fill and after clear(), no tag is found, ~0 - 1
    // included, and every set's victim is unoccupied.
    LruSets<> store(12, 8);
    for (int round = 0; round < 2; ++round) {
        for (std::uint64_t t : {std::uint64_t{0}, std::uint64_t{11}, kMax - 1})
            EXPECT_EQ(store.find(t), nullptr) << "round " << round;
        for (std::size_t set = 0; set < store.sets(); ++set)
            EXPECT_FALSE(store.occupied(store.victim(set)));
        for (std::uint64_t t = 0; t < 96; ++t)
            store.accessAndFill(t);
        store.clear();
    }
}

/** The largest tag a structure makes misses, then fills, then hits. */
void
expectMissFillHit(LruSets<> &store, std::uint64_t tag)
{
    SCOPED_TRACE(::testing::Message() << "tag " << tag);
    EXPECT_EQ(store.find(tag), nullptr);
    EXPECT_FALSE(store.accessAndFill(tag));
    EXPECT_TRUE(store.accessAndFill(tag));
    store.clear();
    EXPECT_EQ(store.find(tag), nullptr);
    store.stamp(store.victim(tag), tag);
    EXPECT_NE(store.find(tag), nullptr);
}

TEST(LruSetsEmptyWays, LargestTagOfEachCallerMissesFillsHits)
{
    for (const std::size_t sets : {1u, 12u, 64u}) {
        LruSets<> store(sets, 4);
        expectMissFillHit(store, kMax >> 1); // 2 B lines, pages, stream pages
        expectMissFillHit(store, kMax >> 2); // BTB: pc >> 2
        expectMissFillHit(store, kMax >> 5); // DSB, loop buffer: pc >> 5
    }
}

TEST(LruSetsEmptyWays, TopAddressMissesFillsHitsInEveryStructure)
{
    Cache cache({64, 4, 2}); // 2 B lines: line ~0 >> 1
    EXPECT_FALSE(cache.contains(kMax));
    EXPECT_FALSE(cache.access(kMax, false).hit);
    EXPECT_TRUE(cache.access(kMax, false).hit);
    EXPECT_TRUE(cache.access(kMax - 1, false).hit); // the same line

    Tlb tlb({8, 4, 2}); // 2 B pages
    EXPECT_FALSE(tlb.contains(kMax));
    EXPECT_FALSE(tlb.access(kMax));
    EXPECT_TRUE(tlb.access(kMax));

    Btb btb(64, 4);
    EXPECT_FALSE(btb.accessAndFill(kMax));
    EXPECT_TRUE(btb.accessAndFill(kMax));

    Dsb dsb(96, 8); // 12 sets
    EXPECT_FALSE(dsb.accessAndFill(kMax >> 5));
    EXPECT_TRUE(dsb.accessAndFill(kMax >> 5));

    LoopBuffer loop(8);
    EXPECT_FALSE(loop.accessAndFill(kMax >> 5));
    EXPECT_TRUE(loop.accessAndFill(kMax >> 5));

    // A stream on the top page: the second line finds the stream
    // (a hit) and, trained, prefetches the next lines of the page.
    PrefetcherParams p;
    p.trainThreshold = 1;
    StreamPrefetcher pf(p);
    const std::uint64_t page = kMax & ~(p.pageBytes - 1);
    EXPECT_TRUE(pf.observe(page).empty());
    EXPECT_EQ(pf.observe(page + 64),
              (std::vector<std::uint64_t>{page + 128, page + 192}));
}

TEST(LruSetsEmptyWays, OneByteLinesAndPagesAreRefused)
{
    EXPECT_THROW(Cache({64, 4, 1}), std::invalid_argument);
    EXPECT_THROW(Tlb({8, 4, 1}), std::invalid_argument);
    PrefetcherParams p;
    p.pageBytes = 1;
    EXPECT_THROW(StreamPrefetcher{p}, std::invalid_argument);

    auto cfg = MachineConfig::intelCoreI99980Xe();
    cfg.l1d.sizeBytes = cfg.l1d.associativity * 64;
    cfg.l1d.lineBytes = 1;
    try {
        cfg.validate();
        ADD_FAILURE() << "a 1 B L1D line was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("L1D line size 1 is under 2"),
                  std::string::npos)
            << e.what();
    }
    cfg = MachineConfig::intelCoreI99980Xe();
    cfg.stlb.pageBytes = 1;
    try {
        cfg.validate();
        ADD_FAILURE() << "a 1 B STLB page was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("STLB page size 1 is under 2"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace netchar::sim
