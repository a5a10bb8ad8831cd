#include "sim/cache.hh"

#include <bit>
#include <stdexcept>

namespace netchar::sim
{

namespace
{

/** Set count of a valid geometry; throws naming the cache otherwise. */
std::uint64_t
setsFor(const CacheGeometry &geometry, const std::string &name)
{
    if (geometry.lineBytes == 0 || geometry.associativity == 0)
        throw std::invalid_argument(name + ": zero line size or assoc");
    if (!std::has_single_bit(geometry.lineBytes))
        throw std::invalid_argument(
            name + ": line size not a power of two");
    if (geometry.lineBytes < 2)
        throw std::invalid_argument(name + ": line size under 2 bytes");
    const std::uint64_t way_bytes =
        static_cast<std::uint64_t>(geometry.lineBytes) *
        geometry.associativity;
    if (geometry.sizeBytes == 0 || geometry.sizeBytes % way_bytes != 0)
        throw std::invalid_argument(
            name + ": size not a multiple of assoc x line");
    return geometry.sizeBytes / way_bytes;
}

} // namespace

Cache::Cache(const CacheGeometry &geometry, std::string name)
    : lineShift_(static_cast<unsigned>(
          std::countr_zero(geometry.lineBytes))),
      lines_(setsFor(geometry, name), geometry.associativity)
{
}

CacheOutcome
Cache::access(std::uint64_t addr, bool is_write)
{
    ++accesses_;
    const std::uint64_t line = lineFor(addr);
    if (auto *hit = lines_.touch(line)) {
        CacheOutcome out;
        out.hit = true;
        out.hitOnPrefetch = hit->data.prefetched;
        hit->data.prefetched = false;
        hit->data.dirty = hit->data.dirty || is_write;
        return out;
    }
    ++misses_;
    return fill(line, {is_write, false});
}

bool
Cache::contains(std::uint64_t addr) const
{
    return lines_.find(lineFor(addr)) != nullptr;
}

void
Cache::invalidateAll()
{
    lines_.clear();
}

} // namespace netchar::sim
