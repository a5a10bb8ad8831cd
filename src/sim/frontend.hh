/**
 * @file
 * Frontend instruction-delivery structures: the DSB (decoded stream
 * buffer / uop cache) and an Arm-style loop buffer.
 *
 * §VI-B1 attributes a large share of .NET/ASP.NET frontend-bandwidth
 * stalls to DSB and MITE (legacy decode) bandwidth. The model tracks
 * which fetch lines are DSB-resident: hot loops stream from the DSB,
 * everything else decodes through MITE with a higher chance of losing
 * fetch bandwidth.
 */

#ifndef NETCHAR_SIM_FRONTEND_HH
#define NETCHAR_SIM_FRONTEND_HH

#include <cstdint>

#include "sim/lru_sets.hh"

namespace netchar::sim
{

/**
 * Decoded stream buffer: a small fully-tagged LRU store of 32-byte
 * fetch-line addresses. A lookup hit means uops for that line stream
 * from the DSB instead of the legacy decoders.
 */
class Dsb
{
  public:
    /**
     * @param lines Capacity in fetch lines; 0 produces a DSB that
     *        never hits (machines without a uop cache).
     * @param assoc Set associativity (clamped to lines).
     */
    explicit Dsb(unsigned lines, unsigned assoc = 8);

    /** Lookup a fetch-line address; fills on miss. */
    bool accessAndFill(std::uint64_t fetch_line);

    /** Drop all lines. */
    void invalidateAll();

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t hits() const { return hits_; }

  private:
    LruSets<> lines_;
    std::uint64_t lookups_ = 0;
    std::uint64_t hits_ = 0;
};

/**
 * Loop buffer: replays the most recent N distinct fetch lines (a tiny
 * fully-associative structure on Arm cores). A hit bypasses both the
 * I-cache and the decoders.
 */
class LoopBuffer
{
  public:
    /** @param lines Capacity in fetch lines; 0 disables. */
    explicit LoopBuffer(unsigned lines);

    /** Lookup a fetch-line address; records it as most recent. */
    bool accessAndFill(std::uint64_t fetch_line);

    /** Drop all lines. */
    void invalidateAll();

  private:
    LruSets<> lines_;
};

} // namespace netchar::sim

#endif // NETCHAR_SIM_FRONTEND_HH
