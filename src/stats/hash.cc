#include "stats/hash.hh"

#include <string>

namespace netchar
{

namespace
{

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/** FNV-1a continuation over the bytes of `s` in reverse order. */
std::uint64_t
fnv1aReversed(std::string_view s, std::uint64_t h)
{
    for (auto it = s.rbegin(); it != s.rend(); ++it) {
        h ^= static_cast<unsigned char>(*it);
        h *= kFnvPrime;
    }
    return h;
}

} // namespace

std::uint64_t
fnv1a(std::string_view s)
{
    return fnv1a(s, kFnvOffsetBasis);
}

std::uint64_t
fnv1a(std::string_view s, std::uint64_t h)
{
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= kFnvPrime;
    }
    return h;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

double
unitInterval(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::string
contentHashHex(std::string_view s)
{
    return contentHashHex(HashedPrefix{}, s);
}

std::string
contentHashHex(const HashedPrefix &prefix, std::string_view suffix)
{
    const std::uint64_t lo = splitmix64(fnv1a(suffix, prefix.forward));
    std::uint64_t reversed = fnv1aReversed(suffix, kFnvOffsetBasis);
    for (auto it = prefix.pieces.rbegin(); it != prefix.pieces.rend();
         ++it)
        reversed = fnv1aReversed(*it, reversed);
    const std::uint64_t hi = splitmix64(reversed ^ lo);
    static const char digits[] = "0123456789abcdef";
    std::string hex(32, '0');
    for (int i = 0; i < 16; ++i) {
        hex[15 - i] = digits[(hi >> (4 * i)) & 0xF];
        hex[31 - i] = digits[(lo >> (4 * i)) & 0xF];
    }
    return hex;
}

} // namespace netchar
