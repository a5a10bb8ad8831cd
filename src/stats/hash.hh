/**
 * @file
 * Shared deterministic hash helpers: FNV-1a string hashing and the
 * splitmix64 finalizer.
 *
 * These lived as file-local helpers in core/faults.cc until the serve
 * layer's content-addressed result cache needed the identical
 * functions for cache keys; they sit in the base stats library (like
 * textio) so the fault-injection hash and the cache-key hash cannot
 * drift apart. Everything here is a pure function of its inputs —
 * stable across platforms, hosts and build modes, which is what makes
 * fault ledgers replayable and cache keys content-addressed.
 */

#ifndef NETCHAR_STATS_HASH_HH
#define NETCHAR_STATS_HASH_HH

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace netchar
{

/** FNV-1a's initial state: the hash of no bytes. */
inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;

/** FNV-1a over a byte string: stable, platform-independent. */
std::uint64_t fnv1a(std::string_view s);

/** FNV-1a continuation: fold more bytes into an existing hash. */
std::uint64_t fnv1a(std::string_view s, std::uint64_t h);

/** splitmix64 finalizer: full-avalanche integer mix. */
std::uint64_t splitmix64(std::uint64_t x);

/** Uniform double in [0, 1) from a mixed hash. */
double unitInterval(std::uint64_t h);

/**
 * 128-bit content hash of a byte string, rendered as 32 lowercase
 * hex characters. Two independent FNV-1a/splitmix64 passes (the
 * second over the reversed byte order) make accidental collisions
 * across cache keys vanishingly unlikely while keeping the function
 * dependency-free and bit-stable everywhere.
 */
std::string contentHashHex(std::string_view s);

/**
 * A leading run of bytes already folded into the forward FNV-1a
 * state: `forward` is fnv1a() of the concatenated `pieces`, which
 * stay where they are (the reverse pass reads them, no copy is made).
 * The default is the empty prefix.
 */
struct HashedPrefix
{
    std::uint64_t forward = kFnvOffsetBasis;
    std::span<const std::string_view> pieces;
};

/**
 * contentHashHex(prefix bytes + suffix) without rehashing the prefix
 * forwards or materializing the concatenation: the forward pass
 * continues from `prefix.forward` over `suffix`, the reverse pass
 * walks `suffix` and then the prefix pieces backwards. The
 * one-argument form is this with an empty prefix, so both give the
 * same hex for the same bytes.
 */
std::string contentHashHex(const HashedPrefix &prefix,
                           std::string_view suffix);

} // namespace netchar

#endif // NETCHAR_STATS_HASH_HH
