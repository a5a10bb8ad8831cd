/**
 * @file
 * Token-stream helpers shared by the netchar-lint analysis layers
 * (token rules, parser, CFG builder, summaries, concurrency pass).
 *
 * Every bracket matcher takes an exclusive `limit` and returns it
 * when the bracket at `open` is not closed before it; callers that
 * scan to the end of the stream pass `toks.size()`.
 */

#ifndef NETCHAR_LINT_TOKENS_HH
#define NETCHAR_LINT_TOKENS_HH

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.hh"

namespace netchar::lint
{

/** RAII guard types that sanction lock/unlock discipline. */
inline constexpr std::array<std::string_view, 3> kGuardTypes = {
    "lock_guard",
    "scoped_lock",
    "unique_lock",
};

inline bool
isPunct(const Token &t, std::string_view text)
{
    return t.kind == TokenKind::Punct && t.text == text;
}

inline bool
isId(const Token &t, std::string_view text)
{
    return t.kind == TokenKind::Identifier && t.text == text;
}

/** True when `text` is one of the names in `table`. */
inline bool
contains(const auto &table, std::string_view text)
{
    for (const std::string_view t : table)
        if (t == text)
            return true;
    return false;
}

/** True when `t` is an identifier named in `set`. */
inline bool
idIn(const Token &t, const auto &set)
{
    return t.kind == TokenKind::Identifier && contains(set, t.text);
}

/** Index of the `closeText` bracket matching the `openText` bracket
 *  at `open`, or `limit`. */
inline std::size_t
matchClose(const std::vector<Token> &toks, std::size_t open,
           std::size_t limit, std::string_view openText,
           std::string_view closeText)
{
    int depth = 0;
    for (std::size_t j = open; j < limit; ++j) {
        if (isPunct(toks[j], openText))
            ++depth;
        else if (isPunct(toks[j], closeText)) {
            --depth;
            if (depth == 0)
                return j;
        }
    }
    return limit;
}

/** Index of the `)` matching the `(` at `open`, or `limit`. */
inline std::size_t
matchParen(const std::vector<Token> &toks, std::size_t open,
           std::size_t limit)
{
    return matchClose(toks, open, limit, "(", ")");
}

/** Index of the `}` matching the `{` at `open`, or `limit`. */
inline std::size_t
matchBrace(const std::vector<Token> &toks, std::size_t open,
           std::size_t limit)
{
    return matchClose(toks, open, limit, "{", "}");
}

/** Skip a balanced template argument list starting at `<`, or
 *  return `open` unchanged when it does not look like one. `>>`
 *  closes two levels. */
inline std::size_t
skipAngles(const std::vector<Token> &toks, std::size_t open,
           std::size_t limit)
{
    int depth = 0;
    for (std::size_t j = open; j < limit; ++j) {
        const Token &t = toks[j];
        if (isPunct(t, "<"))
            ++depth;
        else if (isPunct(t, ">")) {
            if (--depth == 0)
                return j + 1;
        } else if (isPunct(t, ">>")) {
            depth -= 2;
            if (depth <= 0)
                return j + 1;
        } else if (isPunct(t, ";") || isPunct(t, "{") ||
                   t.kind == TokenKind::String)
            break; // not a template argument list after all
    }
    return open;
}

/** The dotted receiver spelling whose last token sits just before
 *  the `.`/`->` at `dot` (`state.mu` for `state . mu . lock`), or
 *  "" when the receiver is not a plain identifier chain. */
inline std::string
receiverChain(const std::vector<Token> &toks, std::size_t dot)
{
    std::vector<std::string> parts;
    std::size_t j = dot;
    while (j > 0) {
        if (toks[j - 1].kind != TokenKind::Identifier)
            return ""; // subscript / call result receiver
        parts.push_back(toks[j - 1].text);
        if (j < 2 || (!isPunct(toks[j - 2], ".") &&
                      !isPunct(toks[j - 2], "->") &&
                      !isPunct(toks[j - 2], "::")))
            break;
        j -= 2;
    }
    std::string out;
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
        if (!out.empty())
            out += '.';
        out += *it;
    }
    return out;
}

/** Last `.`-separated component of a receiver chain. */
inline std::string
lastComponent(const std::string &chain)
{
    const std::size_t dot = chain.rfind('.');
    return dot == std::string::npos ? chain : chain.substr(dot + 1);
}

} // namespace netchar::lint

#endif // NETCHAR_LINT_TOKENS_HH
