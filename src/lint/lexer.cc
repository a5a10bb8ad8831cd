#include "lint/lexer.hh"

#include <array>

namespace netchar::lint
{

namespace
{

// Character classes as inline ASCII range checks. The program runs
// in the C locale (nothing calls setlocale), where <cctype>'s
// isspace/isalpha/isalnum/isdigit are exactly these ranges and a
// byte >= 0x80 is in none of them.

bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

bool
isIdentStart(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool
isIdentChar(char c)
{
    return isIdentStart(c) || isDigit(c);
}

/**
 * Multi-character punctuators, longest first so maximal munch works
 * by scanning the table in order. Only `::` and `...` matter to the
 * rules; the rest keep the stream faithful (so `->` is one token,
 * not a `-` the rules might misread).
 */
constexpr std::array<std::string_view, 22> kPuncts = {
    "<<=", ">>=", "<=>", "->*", "...", "::", "->", "<<", ">>",
    "<=",  ">=",  "==",  "!=",  "&&",  "||", "+=", "-=", "*=",
    "/=",  "%=",  "++",  "--",
};

/** Bytes that begin some kPuncts entry: any other byte is a
 *  one-byte punctuator without a table lookup. */
constexpr std::array<bool, 256> kPunctStart = [] {
    std::array<bool, 256> starts{};
    for (const std::string_view p : kPuncts)
        starts[static_cast<unsigned char>(p.front())] = true;
    return starts;
}();

/** Cursor over the source with 1-based line/column tracking. */
struct Cursor
{
    std::string_view src;
    std::size_t pos = 0;
    int line = 1;
    int column = 1;

    bool done() const { return pos >= src.size(); }
    char peek(std::size_t ahead = 0) const
    {
        return pos + ahead < src.size() ? src[pos + ahead] : '\0';
    }
    bool startsWith(std::string_view s) const
    {
        return src.compare(pos, s.size(), s) == 0;
    }
    void advance()
    {
        if (src[pos] == '\n') {
            ++line;
            column = 1;
        } else {
            ++column;
        }
        ++pos;
    }
    void advance(std::size_t n)
    {
        while (n-- > 0 && !done())
            advance();
    }
    /** Skip `n` bytes the caller knows hold no newline. */
    void skip(std::size_t n)
    {
        pos += n;
        column += static_cast<int>(n);
    }
    /** Skip the run of bytes that satisfy `in`, which holds for
     *  no newline. */
    template <typename Pred>
    void skipWhile(Pred in)
    {
        const std::size_t from = pos;
        while (pos < src.size() && in(src[pos]))
            ++pos;
        column += static_cast<int>(pos - from);
    }
};

/** Trim ASCII whitespace from both ends. */
std::string_view
trim(std::string_view s)
{
    while (!s.empty() && isSpace(s.front()))
        s.remove_prefix(1);
    while (!s.empty() && isSpace(s.back()))
        s.remove_suffix(1);
    return s;
}

/**
 * Parse the body of a comment that contains the pragma marker. The
 * grammar is strict on purpose — a pragma that silences a rule must
 * name the rule and carry a human reason, or it is itself a finding.
 */
Pragma
parsePragma(std::string_view comment, int line, int endLine)
{
    Pragma p;
    p.line = line;
    p.endLine = endLine;

    const std::string_view marker = "netchar-lint:";
    const auto at = comment.find(marker);
    std::string_view rest = trim(comment.substr(at + marker.size()));

    const std::string_view flowVerb = "allow-flow(";
    const std::string_view verb = "allow(";
    if (rest.compare(0, flowVerb.size(), flowVerb) == 0) {
        p.flow = true;
        rest.remove_prefix(flowVerb.size());
    } else if (rest.compare(0, verb.size(), verb) == 0) {
        rest.remove_prefix(verb.size());
    } else {
        p.malformed = true;
        p.error = "expected 'allow(<rule>) -- <reason>' or "
                  "'allow-flow(<rule>) -- <reason>' after "
                  "'netchar-lint:'";
        return p;
    }
    const auto close = rest.find(')');
    if (close == std::string_view::npos) {
        p.malformed = true;
        p.error = "unterminated allow(...) rule list";
        return p;
    }
    std::string_view list = rest.substr(0, close);
    rest = trim(rest.substr(close + 1));

    while (!list.empty()) {
        const auto comma = list.find(',');
        const std::string_view name = trim(list.substr(0, comma));
        if (name.empty()) {
            p.malformed = true;
            p.error = "empty rule name in allow(...)";
            return p;
        }
        p.rules.emplace_back(name);
        if (comma == std::string_view::npos)
            break;
        list.remove_prefix(comma + 1);
    }
    if (p.rules.empty()) {
        p.malformed = true;
        p.error = "allow(...) names no rule";
        return p;
    }

    if (rest.compare(0, 2, "--") != 0) {
        p.malformed = true;
        p.error = "missing '-- <reason>' after allow(...)";
        return p;
    }
    rest = trim(rest.substr(2));
    // Block comments may carry their terminator into the text.
    if (rest.size() >= 2 && rest.substr(rest.size() - 2) == "*/")
        rest = trim(rest.substr(0, rest.size() - 2));
    if (rest.empty()) {
        p.malformed = true;
        p.error = "suppression reason after '--' is empty";
        return p;
    }
    p.reason = std::string(rest);
    return p;
}

/** `text` with every backslash-newline (or backslash-CR-LF) splice
 *  replaced by `with`. */
std::string
replaceSplices(std::string_view text, std::string_view with)
{
    std::string flat;
    flat.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '\\') {
            std::size_t j = i + 1;
            if (j < text.size() && text[j] == '\r')
                ++j;
            if (j < text.size() && text[j] == '\n') {
                flat += with;
                i = j;
                continue;
            }
        }
        flat += text[i];
    }
    return flat;
}

/** Record `comment` as a pragma if it contains the marker. A spliced
 *  comment (backslash-newline continuations) is flattened first so
 *  the pragma grammar never sees the line break. */
void
harvestPragma(LexedFile &out, std::string_view comment, int line,
              int endLine)
{
    if (comment.find("netchar-lint:") == std::string_view::npos)
        return;
    if (comment.find('\\') == std::string_view::npos)
        out.pragmas.push_back(parsePragma(comment, line, endLine));
    else
        out.pragmas.push_back(
            parsePragma(replaceSplices(comment, " "), line, endLine));
}

/** True when the cursor sits on a backslash-newline line splice. */
bool
atSplice(const Cursor &c)
{
    if (c.peek() != '\\')
        return false;
    return c.peek(1) == '\n' ||
           (c.peek(1) == '\r' && c.peek(2) == '\n');
}

/** Consume one backslash-newline (or backslash-CR-LF) splice. */
void
eatSplice(Cursor &c)
{
    c.advance(c.peek(1) == '\r' ? 3u : 2u);
}

} // namespace

LexedFile
lex(std::string_view input)
{
    LexedFile out;
    auto bytes = std::make_shared<SourceText>();
    bytes->source.assign(input);
    const std::string_view source = bytes->source;
    Cursor c{source};
    // The text of the token that spans [from, c.pos): a view of the
    // source, or of the side store when a line splice runs through it.
    const auto tokenText = [&](std::size_t from,
                               bool spliced) -> std::string_view {
        const std::string_view raw = source.substr(from, c.pos - from);
        if (!spliced)
            return raw;
        return bytes->joined.emplace_front(replaceSplices(raw, ""));
    };

    while (!c.done()) {
        const char ch = c.peek();

        if (isSpace(ch)) {
            do
                c.advance();
            while (!c.done() && isSpace(c.peek()));
            continue;
        }

        // Translation phase 2: a backslash-newline between tokens
        // (preprocessor continuations in particular) splices lines
        // and must not surface as a stray `\` punctuator.
        if (atSplice(c)) {
            eatSplice(c);
            continue;
        }

        // Line comment (also harvests pragmas). A backslash-newline
        // splice extends the comment onto the next physical line —
        // the standard behaviour, and the one that keeps a spliced
        // pragma whole.
        if (ch == '/' && c.peek(1) == '/') {
            const int line = c.line;
            const std::size_t start = c.pos;
            while (!c.done()) {
                c.skipWhile(
                    [](char b) { return b != '\n' && b != '\\'; });
                if (atSplice(c))
                    eatSplice(c);
                else if (c.peek() == '\\')
                    c.skip(1);
                else
                    break;
            }
            harvestPragma(out, source.substr(start, c.pos - start),
                          line, c.line);
            continue;
        }

        // Block comment.
        if (ch == '/' && c.peek(1) == '*') {
            const int line = c.line;
            const std::size_t start = c.pos;
            // Up to the "*/" (npos runs to end of file), then past it.
            c.advance(source.find("*/", start + 2) - start);
            c.advance(2);
            harvestPragma(out, source.substr(start, c.pos - start),
                          line, c.line);
            continue;
        }

        // Ordinary string or char literal (with escape handling).
        if (ch == '"' || ch == '\'') {
            const int line = c.line;
            const int column = c.column;
            const char quote = ch;
            c.advance();
            while (!c.done() && c.peek() != quote) {
                if (c.peek() == '\\')
                    c.advance();
                if (!c.done())
                    c.advance();
            }
            c.advance(1); // closing quote (bounds-checked at EOF)
            out.tokens.push_back({quote == '"' ? TokenKind::String
                                               : TokenKind::CharLit,
                                  line, column,
                                  quote == '"' ? "<string>"
                                               : "<char>"});
            continue;
        }

        // Identifier. Ordinary string-literal prefixes (u8"", L"",
        // ...) stay plain identifiers followed by a String token,
        // which is faithful enough for the rules — but raw-string
        // prefixes (R, u8R, uR, UR, LR) must switch to the raw
        // grammar, where the content is delimiter-terminated and
        // escapes are inert.
        if (isIdentStart(ch)) {
            const int line = c.line;
            const int column = c.column;
            const std::size_t start = c.pos;
            bool spliced = false;
            while (true) {
                c.skipWhile(isIdentChar);
                // A splice inside an identifier joins the halves
                // into one name (translation phase 2 runs before
                // tokenization).
                if (!atSplice(c))
                    break;
                eatSplice(c);
                spliced = true;
            }
            const std::string_view name = tokenText(start, spliced);
            if (c.peek() == '"' &&
                (name == "R" || name == "u8R" || name == "uR" ||
                 name == "UR" || name == "LR")) {
                // Raw string literal: (prefix)R"delim( ... )delim".
                c.advance(); // opening quote
                std::string delim;
                while (!c.done() && c.peek() != '(' &&
                       c.peek() != '"' && c.peek() != '\n') {
                    delim += c.peek();
                    c.advance();
                }
                c.advance(1); // '(' (bounds-checked: EOF is legal)
                const std::string close = ")" + delim + "\"";
                while (!c.done() && !c.startsWith(close))
                    c.advance();
                c.advance(close.size());
                out.tokens.push_back(
                    {TokenKind::String, line, column, "<raw-string>"});
                continue;
            }
            out.tokens.push_back(
                {TokenKind::Identifier, line, column, name});
            continue;
        }

        // pp-number: digits plus '.', digit separators and
        // exponent signs. `1.5e-3` and `0x1fp+2` are one token.
        if (isDigit(ch) ||
            (ch == '.' && isDigit(c.peek(1)))) {
            const int line = c.line;
            const int column = c.column;
            const std::size_t start = c.pos;
            bool spliced = false;
            char prev = ch; // last byte of the joined text so far
            while (true) {
                const std::size_t from = c.pos;
                c.skipWhile(
                    [](char d) { return isIdentChar(d) || d == '.'; });
                if (c.pos > from)
                    prev = source[c.pos - 1];
                // A splice joins the halves, as in an identifier.
                if (atSplice(c)) {
                    eatSplice(c);
                    spliced = true;
                    continue;
                }
                const char d = c.peek();
                // C++14 digit separator: a `'` continues the
                // pp-number only when followed by an alphanumeric
                // (`1'000'000`, `0xDEAD'BEEF`). A bare `'` after a
                // digit opens a character literal instead, and
                // swallowing it would desync every later token —
                // and with them pragma line attribution.
                const bool separator =
                    d == '\'' && isIdentChar(c.peek(1));
                const bool sign = (d == '+' || d == '-') &&
                                  (prev == 'e' || prev == 'E' ||
                                   prev == 'p' || prev == 'P');
                if (!separator && !sign)
                    break;
                prev = d;
                c.skip(1);
            }
            out.tokens.push_back({TokenKind::Number, line, column,
                                  tokenText(start, spliced)});
            continue;
        }

        // Punctuation, longest munch over the multi-char table. Only
        // entries that start with this byte can match.
        {
            std::size_t size = 1;
            if (kPunctStart[static_cast<unsigned char>(ch)]) {
                for (const std::string_view p : kPuncts) {
                    if (p.front() == ch && c.startsWith(p)) {
                        size = p.size();
                        break;
                    }
                }
            }
            out.tokens.push_back({TokenKind::Punct, c.line, c.column,
                                  source.substr(c.pos, size)});
            c.skip(size);
        }
    }

    out.bytes = std::move(bytes);
    return out;
}

} // namespace netchar::lint
