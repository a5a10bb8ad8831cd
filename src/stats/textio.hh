/**
 * @file
 * Shared text helpers: JSON string escaping, RFC 4180 CSV field
 * quoting, the one exact rendering of a double, and the one rule for
 * reading an unsigned number from text.
 *
 * These lived in core/export until the trace exporters needed them
 * too; they sit in the base stats library so every layer (core
 * exports, trace exports) can share one definition. They stay in
 * namespace netchar — they are repo-wide vocabulary, not statistics.
 */

#ifndef NETCHAR_STATS_TEXTIO_HH
#define NETCHAR_STATS_TEXTIO_HH

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>

namespace netchar
{

/**
 * Escape a string for embedding in a JSON document. Control
 * characters become \uXXXX escapes; non-ASCII UTF-8 bytes pass
 * through unchanged (JSON is UTF-8).
 */
std::string jsonEscape(const std::string &raw);

/** Quote a CSV field when needed (RFC 4180). */
std::string csvField(const std::string &raw);

/**
 * Append `value` exactly as printf's "%.17g" writes it; the standard
 * defines std::to_chars' general format at precision 17 that way,
 * without printf's multi-precision path. 17 significant digits
 * round-trip every IEEE-754 double, so equal values give equal bytes
 * and different values never collide.
 */
void appendExactDouble(std::string &out, double value);

/**
 * Read `text` as a decimal unsigned integer that fits in T: digits
 * only (no sign, no whitespace, nothing after the number) and no
 * larger than T's maximum. Returns false, leaving `out` unchanged,
 * for anything else, so "-1" can never wrap to 2^64-1 and
 * "4294967297" can never truncate to 1 in a 32-bit field.
 */
template <typename T>
bool
parseUnsigned(std::string_view text, T &out)
{
    static_assert(std::is_unsigned_v<T>);
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end)
        return false;
    out = value;
    return true;
}

} // namespace netchar

#endif // NETCHAR_STATS_TEXTIO_HH
