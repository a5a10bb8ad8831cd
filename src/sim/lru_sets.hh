/**
 * @file
 * One set-associative tag store with true-LRU replacement, shared by
 * every tagged structure in sim/: caches, TLBs, the BTB, the DSB, the
 * loop buffer and the stream-prefetcher table.
 *
 * Tags live in their own flat set-major array, beside a second array
 * of the rest of each entry (LRU stamp, valid bit, payload), so a probe
 * scans `ways` contiguous tags: 64 B for an 8-way set. The tag array
 * starts zeroed and 0 is a real tag, so a probe reads an entry's valid
 * bit only when its tag matches. The set of a tag is `tag % sets`,
 * computed as a mask when the set count is a power of two and with `%`
 * otherwise (a 96-line DSB has 12 sets). A victim is the first invalid
 * way of the set, otherwise its least recently used way.
 */

#ifndef NETCHAR_SIM_LRU_SETS_HH
#define NETCHAR_SIM_LRU_SETS_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
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
    /** One way's state apart from its tag, which is in tags_. */
    struct Entry
    {
        /** Stamp of the last fill or hit; only the order matters. */
        std::uint64_t lastUse = 0;
        bool valid = false;
        Payload data{};
    };

    LruSets(std::size_t sets, std::size_t ways)
        : sets_(sets == 0 ? 1 : sets),
          ways_(sets == 0 ? 0 : ways),
          pow2_((sets_ & (sets_ - 1)) == 0),
          tags_(sets_ * ways_),
          entries_(sets_ * ways_)
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
            if (tags[w] == tag && entries_[first + w].valid)
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
     * The way a fill of `tag` replaces: the first invalid way of the
     * set, else the least recently used one. Needs ways > 0. Read
     * what it held before stamp() overwrites it.
     */
    Entry &victim(std::uint64_t tag)
    {
        Entry *set = setFor(tag);
        Entry *v = set;
        for (std::size_t w = 0; w < ways_; ++w) {
            if (!set[w].valid)
                return set[w];
            if (set[w].lastUse < v->lastUse)
                v = &set[w];
        }
        return *v;
    }

    /**
     * Fill `e`, an entry of this store, with `tag` as the most
     * recently used way.
     */
    void stamp(Entry &e, std::uint64_t tag, const Payload &data = {})
    {
        tags_[static_cast<std::size_t>(&e - entries_.data())] = tag;
        e.lastUse = ++tick_;
        e.valid = true;
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
     * twice in a set, and stamps that order its valid ways.
     */
    void write(std::size_t set, std::size_t way, std::uint64_t tag,
               std::uint64_t stamp, const Payload &data)
    {
        tags_[set * ways_ + way] = tag;
        entries_[set * ways_ + way] = Entry{stamp, true, data};
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

    /** Invalidate every entry. */
    void clear()
    {
        std::fill(tags_.begin(), tags_.end(), 0);
        std::fill(entries_.begin(), entries_.end(), Entry{});
    }

  private:
    Entry *setFor(std::uint64_t tag)
    {
        return entries_.data() + setIndex(tag) * ways_;
    }

    std::size_t sets_;
    std::size_t ways_;
    /** sets_ is a power of two, so setIndex() can mask. */
    bool pow2_;
    /** Tag of each way, set-major; entries_ holds the rest. */
    std::vector<std::uint64_t> tags_;
    std::vector<Entry> entries_;
    std::uint64_t tick_ = 0;
};

} // namespace netchar::sim

#endif // NETCHAR_SIM_LRU_SETS_HH
