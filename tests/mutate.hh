/**
 * @file
 * Seeded byte mutator shared by the parser fuzz tests: the fault-spec
 * grammars (tests/core/faults_test.cc) and the serve request, sweep
 * body and journal parsers (tests/serve/robust_test.cc).
 */

#ifndef NETCHAR_TESTS_MUTATE_HH
#define NETCHAR_TESTS_MUTATE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "stats/hash.hh"

namespace netchar::test
{

/**
 * 1-4 edits (overwrite, insert, delete, duplicate a span, truncate)
 * drawn from a splitmix64 stream. Three in four replacement bytes
 * come from `alphabet`, which callers bias towards their grammar's
 * own punctuation; the rest are arbitrary bytes.
 */
inline std::string
mutate(std::string s, std::uint64_t &state, std::string_view alphabet)
{
    const auto next = [&state] { return state = splitmix64(state); };
    const auto byte = [&]() -> char {
        const std::uint64_t r = next();
        return r % 4 == 0 ? static_cast<char>(r >> 8)
                          : alphabet[(r >> 8) % alphabet.size()];
    };
    const unsigned edits = 1 + next() % 4;
    for (unsigned e = 0; e < edits; ++e) {
        const std::size_t at = s.empty() ? 0 : next() % (s.size() + 1);
        switch (next() % 5) {
        case 0:
            if (at < s.size())
                s[at] = byte();
            break;
        case 1:
            s.insert(s.begin() + static_cast<std::ptrdiff_t>(at), byte());
            break;
        case 2:
            if (at < s.size())
                s.erase(at, 1 + next() % 3);
            break;
        case 3:
            if (at < s.size())
                s.insert(at, s.substr(at, 1 + next() % 6));
            break;
        default:
            s.resize(at);
            break;
        }
    }
    return s;
}

} // namespace netchar::test

#endif // NETCHAR_TESTS_MUTATE_HH
