#include "sim/tlb.hh"

#include <bit>
#include <stdexcept>

namespace netchar::sim
{

namespace
{

/** Set count of a valid geometry; throws otherwise. */
std::size_t
setsFor(const TlbGeometry &geometry)
{
    if (geometry.pageBytes == 0 || geometry.associativity == 0)
        throw std::invalid_argument("Tlb: zero page size or assoc");
    if (!std::has_single_bit(geometry.pageBytes))
        throw std::invalid_argument("Tlb: page size not a power of two");
    if (geometry.pageBytes < 2)
        throw std::invalid_argument("Tlb: page size under 2 bytes");
    if (geometry.entries == 0 ||
        geometry.entries % geometry.associativity != 0)
        throw std::invalid_argument(
            "Tlb: entries not a multiple of associativity");
    return geometry.entries / geometry.associativity;
}

} // namespace

Tlb::Tlb(const TlbGeometry &geometry)
    : pageShift_(static_cast<unsigned>(
          std::countr_zero(geometry.pageBytes))),
      entries_(setsFor(geometry), geometry.associativity)
{
}

bool
Tlb::access(std::uint64_t addr)
{
    ++accesses_;
    if (entries_.accessAndFill(vpnFor(addr)))
        return true;
    ++misses_;
    return false;
}

bool
Tlb::contains(std::uint64_t addr) const
{
    return entries_.find(vpnFor(addr)) != nullptr;
}

void
Tlb::install(std::uint64_t addr)
{
    entries_.accessAndFill(vpnFor(addr));
}

void
Tlb::invalidateAll()
{
    entries_.clear();
}

TlbHierarchy::TlbHierarchy(const TlbGeometry &l1, const TlbGeometry &stlb)
    : l1_(l1),
      hasStlb_(stlb.entries > 0),
      stlb_(hasStlb_ ? stlb : TlbGeometry{1, 1, l1.pageBytes})
{
}

TlbOutcome
TlbHierarchy::access(std::uint64_t addr)
{
    TlbOutcome out;
    if (l1_.access(addr)) {
        out.hit = true;
        return out;
    }
    if (hasStlb_ && stlb_.access(addr)) {
        out.stlbHit = true;
        return out;
    }
    ++walks_;
    return out;
}

void
TlbHierarchy::install(std::uint64_t addr)
{
    l1_.install(addr);
    if (hasStlb_)
        stlb_.install(addr);
}

void
TlbHierarchy::invalidateAll()
{
    l1_.invalidateAll();
    if (hasStlb_)
        stlb_.invalidateAll();
}

} // namespace netchar::sim
