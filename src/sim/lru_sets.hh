/**
 * @file
 * One set-associative tag store with true-LRU replacement, shared by
 * every tagged structure in sim/: caches, TLBs, the BTB, the DSB, the
 * loop buffer and the stream-prefetcher table.
 *
 * Tags live in their own flat set-major array, beside a second array
 * of the rest of each entry (LRU stamp, payload), so a probe scans
 * `ways` contiguous tags: 64 B for an 8-way set. The array holds each
 * tag complemented, so a zeroed array is the empty store and a probe
 * compares tags only. That reserves the tag ~0, which no caller can
 * produce: cache lines (`addr >> log2(line)`) and TLB pages
 * (`addr >> log2(page)`) need lines and pages of at least 2 bytes,
 * which the geometry checks demand; the BTB tags `pc >> 2`, the DSB
 * and loop buffer 32 B fetch lines (`pc >> 5`) and the stream
 * prefetcher `addr / pageBytes` with pageBytes >= 2. The set of a tag
 * is `tag % sets`, computed as a mask when the set count is a power
 * of two and with `%` otherwise (a 96-line DSB has 12 sets).
 *
 * A fill takes the first empty way of its set, write() fills whole
 * sets and only clear() empties a way, so a set's occupied ways are
 * always a prefix: the set is full when its last way is, and a
 * victim is the first empty way of the set, otherwise its least
 * recently used way.
 */

#ifndef NETCHAR_SIM_LRU_SETS_HH
#define NETCHAR_SIM_LRU_SETS_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace netchar::sim
{

/** Payload of a store that keeps only tags. */
struct NoPayload
{
};

/**
 * Set-associative LRU tag store.
 *
 * A store built with zero sets or zero ways holds nothing: every probe
 * misses and accessAndFill() never fills.
 */
template <typename Payload = NoPayload>
class LruSets
{
  public:
    /**
     * One way's state apart from its tag, which is in tags_. The fill
     * that occupies a way writes its entry, and only an occupied way's
     * entry is read, so entries start uninitialised: with a payload
     * that has no default member initializers, building a store
     * writes nothing but its zeroed tags.
     */
    struct Entry
    {
        /** Stamp of the last fill or hit; only the order matters. */
        std::uint64_t lastUse;
        Payload data;
    };

    LruSets(std::size_t sets, std::size_t ways)
        : sets_(sets == 0 ? 1 : sets),
          ways_(sets == 0 ? 0 : ways),
          pow2_((sets_ & (sets_ - 1)) == 0),
          tags_(sets_ * ways_),
          entries_(std::make_unique_for_overwrite<Entry[]>(sets_ * ways_))
    {
    }

    std::size_t sets() const { return sets_; }
    std::size_t ways() const { return ways_; }

    /** The set `tag` maps to: `tag % sets()`. */
    std::size_t setIndex(std::uint64_t tag) const
    {
        return static_cast<std::size_t>(pow2_ ? tag & (sets_ - 1)
                                              : tag % sets_);
    }

    /** Probe without any state change; nullptr on a miss. */
    Entry *find(std::uint64_t tag)
    {
        const std::size_t first = setIndex(tag) * ways_;
        const std::uint64_t *tags = tags_.data() + first;
        for (std::size_t w = 0; w < ways_; ++w)
            if (tags[w] == ~tag)
                return &entries_[first + w];
        return nullptr;
    }

    const Entry *find(std::uint64_t tag) const
    {
        return const_cast<LruSets *>(this)->find(tag);
    }

    /** Probe; a hit becomes the most recently used way of its set. */
    Entry *touch(std::uint64_t tag)
    {
        Entry *e = find(tag);
        if (e != nullptr)
            e->lastUse = ++tick_;
        return e;
    }

    /**
     * The way a fill of `tag` replaces: the first empty way of the
     * set, else the least recently used one. Needs ways > 0. Read
     * what it held (if occupied()) before stamp() overwrites it.
     */
    Entry &victim(std::uint64_t tag)
    {
        const std::size_t first = setIndex(tag) * ways_;
        const std::uint64_t *tags = tags_.data() + first;
        Entry *set = entries_.get() + first;
        if (tags[ways_ - 1] == kEmpty) {
            std::size_t w = 0;
            while (tags[w] != kEmpty)
                ++w;
            return set[w];
        }
        return set[leastRecent(set)];
    }

    /** Whether `e`, an entry of this store, holds a tag. */
    bool occupied(const Entry &e) const
    {
        return tags_[indexOf(e)] != kEmpty;
    }

    /**
     * Fill `e`, an entry of this store, with `tag` as the most
     * recently used way.
     */
    void stamp(Entry &e, std::uint64_t tag, const Payload &data = {})
    {
        tags_[indexOf(e)] = ~tag;
        e.lastUse = ++tick_;
        e.data = data;
    }

    /**
     * Take `n` consecutive stamps, newer than every stamp given so
     * far. @return the first of them.
     */
    std::uint64_t reserveStamps(std::uint64_t n)
    {
        const std::uint64_t first = tick_ + 1;
        tick_ += n;
        return first;
    }

    /**
     * Overwrite way `way` of set `set` with `tag` and a stamp from
     * reserveStamps(). The caller keeps the set's invariants: no tag
     * twice in a set, occupied ways a prefix once it is done, and
     * stamps that order them.
     */
    void write(std::size_t set, std::size_t way, std::uint64_t tag,
               std::uint64_t stamp, const Payload &data)
    {
        tags_[set * ways_ + way] = ~tag;
        entries_[set * ways_ + way] = Entry{stamp, data};
    }

    /** touch(), filling the victim on a miss. @return true on a hit. */
    bool accessAndFill(std::uint64_t tag)
    {
        if (touch(tag) != nullptr)
            return true;
        if (ways_ > 0)
            stamp(victim(tag), tag);
        return false;
    }

    /** Empty every way; the entries keep stale, unread state. */
    void clear() { std::fill(tags_.begin(), tags_.end(), kEmpty); }

  private:
    /** The stored form of an empty way: the complement of tag ~0. */
    static constexpr std::uint64_t kEmpty = 0;

    /** The least recently used way of the full set at `set`. */
    std::size_t leastRecent(const Entry *set) const
    {
        // Two selects, so the compiler emits conditional moves: where
        // the LRU way sits is random, and a branch on it mispredicts.
        std::uint64_t oldest = set[0].lastUse;
        std::size_t v = 0;
        for (std::size_t w = 1; w < ways_; ++w) {
            const std::uint64_t use = set[w].lastUse;
            const bool older = use < oldest;
            oldest = older ? use : oldest;
            v = older ? w : v;
        }
        return v;
    }

    std::size_t indexOf(const Entry &e) const
    {
        return static_cast<std::size_t>(&e - entries_.get());
    }

    std::size_t sets_;
    std::size_t ways_;
    /** sets_ is a power of two, so setIndex() can mask. */
    bool pow2_;
    /** ~tag of each way, or kEmpty, set-major; entries_ has the rest. */
    std::vector<std::uint64_t> tags_;
    std::unique_ptr<Entry[]> entries_;
    std::uint64_t tick_ = 0;
};

} // namespace netchar::sim

#endif // NETCHAR_SIM_LRU_SETS_HH
