/**
 * @file
 * A small comment/string-aware C++ tokenizer for netchar-lint.
 *
 * This is deliberately not a C++ parser: the lint rules only need a
 * token stream in which comments, string literals (including raw
 * strings) and character literals can never be mistaken for code.
 * Everything else — identifiers, numbers, punctuation — is surfaced
 * with 1-based line/column positions so findings are clickable.
 *
 * The lexer is also where suppression pragmas are recognised: a
 * comment containing the marker `netchar-lint` followed by a colon,
 * then `allow(<rule>[,<rule>...]) -- <reason>` for token-rule
 * findings, or `allow-flow(<rule>[,<rule>...]) -- <reason>` to
 * sanitize a taint flow (see taint.hh). (The marker is not written
 * out literally here, or this header would carry pragmas.)
 *
 * A pragma comment suppresses matching findings on any line it
 * spans and on the line directly below its last line (so it works
 * both as a trailing comment and as a comment line — possibly
 * spliced or block-form over several lines — above the flagged
 * statement). The
 * reason after `--` is mandatory; a pragma without one is surfaced as
 * malformed and suppresses nothing.
 *
 * Translation-phase-2 line splices (backslash-newline) are honoured:
 * a spliced line comment keeps its pragma intact, and a spliced
 * preprocessor directive contributes its continuation tokens without
 * stray `\` punctuation in the stream.
 *
 * Characters are classified by inline ASCII range checks, which are
 * the C locale's <cctype> classes (the program never calls
 * setlocale): a byte >= 0x80 is neither space nor identifier
 * character, so it lexes as a one-byte punctuator. Cost is per byte:
 * identifier and pp-number runs are scanned to their end, and a
 * punctuator tries only the multi-byte entries that begin with its
 * first byte. The source is copied once per file, and token texts
 * view that copy rather than owning strings of their own.
 */

#ifndef NETCHAR_LINT_LEXER_HH
#define NETCHAR_LINT_LEXER_HH

#include <cstdint>
#include <forward_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace netchar::lint
{

enum class TokenKind : std::uint8_t
{
    Identifier, ///< keywords are not distinguished from identifiers
    Number,     ///< pp-number: 0x1f, 1'000, 1.5e-3, ...
    String,     ///< "..." (any prefix), R"(...)" raw strings
    CharLit,    ///< '...'
    Punct,      ///< operators and punctuation, longest-munch
};

/**
 * One token. `text` views bytes owned by the LexedFile the token came
 * from, and stays valid for as long as any copy of that LexedFile
 * (or of a FileModel holding it) lives. String and character
 * literals view the placeholders "<string>", "<raw-string>" and
 * "<char>" instead.
 */
struct Token
{
    TokenKind kind = TokenKind::Punct;
    int line = 0;   ///< 1-based
    int column = 0; ///< 1-based byte column
    std::string_view text;
};
static_assert(sizeof(Token) <= 32);

/** One parsed netchar-lint pragma comment. */
struct Pragma
{
    int line = 0; ///< line the comment starts on
    /** Line the comment ends on (== line unless the comment is
     *  spliced or a multi-line block comment). Coverage extends
     *  from `line` through `endLine + 1`. */
    int endLine = 0;
    std::vector<std::string> rules; ///< rule names inside allow(...)
    std::string reason;             ///< text after `--`
    /** True for `allow-flow(...)`: a taint sanitizer, not a token
     *  suppression (see taint.hh for the flow-rule namespace). */
    bool flow = false;
    bool malformed = false;
    std::string error; ///< why the pragma was rejected
};

/** The bytes token texts view: one immutable copy of the source,
 *  plus the few texts that are not one slice of it. */
struct SourceText
{
    std::string source;
    /** Identifiers and pp-numbers joined across a line splice
     *  (`x\<LF>y` is `xy`). A list, so adding one never moves the
     *  others. */
    std::forward_list<std::string> joined;
};

/** Token stream plus any lint pragmas found in comments. Copies
 *  share `bytes`, so copying or moving a LexedFile never invalidates
 *  a token's view. */
struct LexedFile
{
    std::vector<Token> tokens;
    std::vector<Pragma> pragmas;
    std::shared_ptr<const SourceText> bytes;
};

/**
 * Tokenize one translation unit. The result owns a copy of `source`,
 * so the caller's buffer may go away afterwards. Never throws on
 * malformed input: an unterminated comment or literal simply ends at
 * end-of-file (the real compiler is the syntax checker, not the
 * linter).
 */
LexedFile lex(std::string_view source);

} // namespace netchar::lint

#endif // NETCHAR_LINT_LEXER_HH
