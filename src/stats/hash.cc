#include "stats/hash.hh"

#include <string>

namespace netchar
{

namespace
{

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

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

FnvReverse::FnvReverse(std::string_view bytes) : scale_(1)
{
    // Walk all 256 low bytes at once (independent chains), then
    // subtract the part that scales with the start state.
    for (std::uint64_t lo = 0; lo < 256; ++lo)
        add_[lo] = lo;
    for (auto it = bytes.rbegin(); it != bytes.rend(); ++it) {
        const auto b = static_cast<unsigned char>(*it);
        for (std::uint64_t &h : add_)
            h = (h ^ b) * kFnvPrime;
        scale_ *= kFnvPrime;
    }
    for (std::uint64_t lo = 0; lo < 256; ++lo)
        add_[lo] -= lo * scale_;
}

std::string
contentHashHex(const HashedPrefix &prefix, std::string_view suffix)
{
    std::uint64_t forward = prefix.forward;
    std::uint64_t reversed = kFnvOffsetBasis;
    const std::size_t n = suffix.size();
    for (std::size_t i = 0; i < n; ++i) {
        forward = (forward ^ static_cast<unsigned char>(suffix[i])) *
                  kFnvPrime;
        reversed =
            (reversed ^ static_cast<unsigned char>(suffix[n - 1 - i])) *
            kFnvPrime;
    }
    for (auto it = prefix.reverse.rbegin(); it != prefix.reverse.rend();
         ++it)
        reversed = (**it)(reversed);
    const std::uint64_t lo = splitmix64(forward);
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
