/**
 * @file
 * Shared deterministic hash helpers: FNV-1a string hashing (and its
 * reverse walk over a fixed string as a table map), the splitmix64
 * finalizer and the 128-bit content hash built from both.
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
 * The reverse FNV-1a walk over one fixed byte string, as a map from
 * the state before the walk to the state after it.
 *
 * An FNV-1a step `h -> (h ^ b) * P` moves `h` by an amount that
 * depends only on `h`'s low byte, and the low byte after the step
 * depends only on the low byte before it. So walking any n bytes
 * from `h` ends at exactly `h * P^n + add[h & 0xFF]` (mod 2^64):
 * one multiply, one add and one lookup in a 2 KB table, whatever n
 * is. Built once per string (256 walks over it), then immutable.
 */
class FnvReverse
{
  public:
    /** The map of FNV-1a over the bytes of `bytes`, last to first
     *  (the empty string's map is the identity). */
    explicit FnvReverse(std::string_view bytes);

    /** The reverse walk of this map's bytes, continued from `h`. */
    std::uint64_t
    operator()(std::uint64_t h) const
    {
        return h * scale_ + add_[h & 0xFF];
    }

  private:
    /** P^n for the string's n bytes. */
    std::uint64_t scale_;
    std::uint64_t add_[256];
};

/**
 * A leading run of bytes already hashed, given as pieces that follow
 * each other: `forward` is fnv1a() of their concatenation, and
 * `reverse` holds one map per piece, in text order (no byte of the
 * prefix is read again). The default is the empty prefix.
 */
struct HashedPrefix
{
    std::uint64_t forward = kFnvOffsetBasis;
    std::span<const FnvReverse *const> reverse;
};

/**
 * contentHashHex(prefix bytes + suffix) without touching the prefix
 * bytes: one loop walks `suffix` forwards from `prefix.forward` and
 * backwards from the offset basis (two independent multiply chains),
 * then the prefix pieces' maps finish the reverse pass, last piece
 * first. The one-argument form is this with an empty prefix, so both
 * give the same hex for the same bytes.
 */
std::string contentHashHex(const HashedPrefix &prefix,
                           std::string_view suffix);

} // namespace netchar

#endif // NETCHAR_STATS_HASH_HH
