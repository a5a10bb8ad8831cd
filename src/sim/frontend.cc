#include "sim/frontend.hh"

#include <algorithm>

namespace netchar::sim
{

namespace
{

/** Ways per set: assoc clamped to [1, lines]. */
unsigned
dsbWays(unsigned lines, unsigned assoc)
{
    return std::max(1u, std::min(assoc, lines));
}

} // namespace

Dsb::Dsb(unsigned lines, unsigned assoc)
    : lines_(lines == 0 ? 0 : std::max(1u, lines / dsbWays(lines, assoc)),
             dsbWays(lines, assoc))
{
}

bool
Dsb::accessAndFill(std::uint64_t fetch_line)
{
    ++lookups_;
    if (!lines_.accessAndFill(fetch_line))
        return false;
    ++hits_;
    return true;
}

void
Dsb::invalidateAll()
{
    lines_.clear();
}

LoopBuffer::LoopBuffer(unsigned lines) : lines_(1, lines) {}

bool
LoopBuffer::accessAndFill(std::uint64_t fetch_line)
{
    return lines_.accessAndFill(fetch_line);
}

void
LoopBuffer::invalidateAll()
{
    lines_.clear();
}

} // namespace netchar::sim
