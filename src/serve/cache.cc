#include "serve/cache.hh"

namespace netchar::serve
{

ResultCache::ResultCache(CacheConfig config) : config_(config) {}

const std::string *
ResultCache::lookup(const std::string &key)
{
    const auto it = index_.find(key);
    if (it == index_.end()) {
        ++counters_.misses;
        return nullptr;
    }
    ++counters_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->body;
}

void
ResultCache::insert(const std::string &key, std::string body)
{
    const auto it = index_.find(key);
    if (it != index_.end()) {
        counters_.bytes -= it->second->body.size();
        counters_.bytes += body.size();
        it->second->body = std::move(body);
        lru_.splice(lru_.begin(), lru_, it->second);
    } else {
        lru_.push_front(Entry{key, std::move(body)});
        index_[key] = lru_.begin();
        counters_.bytes += lru_.front().body.size();
        ++counters_.entries;
    }
    ++counters_.inserts;
    evictOverBudget();
}

void
ResultCache::restore(const std::string &key, std::string body)
{
    insert(key, std::move(body));
    // Replayed persistence, not a fresh result.
    --counters_.inserts;
}

void
ResultCache::evictOverBudget()
{
    while (!lru_.empty() &&
           ((config_.maxEntries != 0 &&
             counters_.entries > config_.maxEntries) ||
            (config_.maxBytes != 0 &&
             counters_.bytes > config_.maxBytes))) {
        // Never evict down to zero on an over-large single body: a
        // cache that cannot hold its own latest answer is useless.
        if (lru_.size() == 1)
            break;
        const Entry &victim = lru_.back();
        counters_.bytes -= victim.body.size();
        --counters_.entries;
        ++counters_.evictions;
        index_.erase(victim.key);
        lru_.pop_back();
    }
}

std::vector<std::string>
ResultCache::keysByRecency() const
{
    std::vector<std::string> keys;
    keys.reserve(lru_.size());
    for (const Entry &entry : lru_)
        keys.push_back(entry.key);
    return keys;
}

} // namespace netchar::serve
