#include "lint/parser.hh"

#include <array>

#include "lint/tokens.hh"

namespace netchar::lint
{

namespace
{

/** Keywords that can precede `(` without naming a call/function. */
bool
isControlKeyword(std::string_view text)
{
    constexpr std::array<std::string_view, 14> kw = {
        "if",     "for",    "while",    "switch", "catch",
        "return", "sizeof", "alignof",  "new",    "delete",
        "throw",  "decltype", "static_assert", "constexpr",
    };
    for (const std::string_view k : kw)
        if (text == k)
            return true;
    return false;
}

/** Type words that would otherwise read as a parameter name. */
bool
isTypeWord(std::string_view text)
{
    constexpr std::array<std::string_view, 11> kw = {
        "void", "int",   "bool",  "char",     "double", "float",
        "long", "short", "unsigned", "signed", "auto",
    };
    for (const std::string_view k : kw)
        if (text == k)
            return true;
    return false;
}

/**
 * Split the token range [begin, end) at top-level commas (depth 0
 * with respect to parens, brackets and braces). Empty chunks are
 * kept so argument positions stay aligned.
 */
std::vector<TokenRange>
splitAtCommas(const std::vector<Token> &toks, std::size_t begin,
              std::size_t end)
{
    std::vector<TokenRange> out;
    int depth = 0;
    std::size_t start = begin;
    for (std::size_t j = begin; j < end; ++j) {
        const Token &t = toks[j];
        if (isPunct(t, "(") || isPunct(t, "[") || isPunct(t, "{"))
            ++depth;
        else if (isPunct(t, ")") || isPunct(t, "]") ||
                 isPunct(t, "}"))
            --depth;
        else if (depth == 0 && isPunct(t, ",")) {
            out.push_back({start, j});
            start = j + 1;
        }
    }
    if (start < end || !out.empty())
        out.push_back({start, end});
    return out;
}

/** Parameter name of one parameter chunk: the last identifier
 *  before any default value, or "" when unnamed. */
std::string
paramName(const std::vector<Token> &toks, TokenRange chunk)
{
    std::size_t limit = chunk.second;
    for (std::size_t j = chunk.first; j < chunk.second; ++j)
        if (isPunct(toks[j], "=")) {
            limit = j;
            break;
        }
    std::string name;
    std::size_t idents = 0;
    for (std::size_t j = chunk.first; j < limit; ++j)
        if (toks[j].kind == TokenKind::Identifier) {
            name = toks[j].text;
            ++idents;
        }
    if (idents == 1 && isTypeWord(name))
        return ""; // bare `void` / unnamed `int`
    return name;
}

/**
 * Try to recognise a function definition whose name is the
 * identifier at `i` and whose parameter list opens at `i + 1`.
 * On success fills `fn` (name/params/position) and returns the
 * index of the body `{`; otherwise returns npos.
 */
std::size_t
recognizeHeader(const std::vector<Token> &toks, std::size_t i,
                FunctionModel &fn)
{
    const Token &name = toks[i];
    if (name.kind != TokenKind::Identifier ||
        isControlKeyword(name.text))
        return std::string::npos;
    if (i > 0 &&
        (isPunct(toks[i - 1], ".") || isPunct(toks[i - 1], "->")))
        return std::string::npos; // member call, not a definition
    const std::size_t close = matchParen(toks, i + 1, toks.size());
    if (close == toks.size())
        return std::string::npos;

    // Walk the tokens between `)` and the body `{`: cv/ref
    // qualifiers, noexcept(...), a trailing return type, or a
    // constructor initializer list. Anything else means this was a
    // call or a plain declaration.
    std::size_t k = close + 1;
    bool ctorInit = false;
    while (k < toks.size()) {
        const Token &t = toks[k];
        if (t.kind == TokenKind::Identifier &&
            (t.text == "const" || t.text == "noexcept" ||
             t.text == "override" || t.text == "final" ||
             t.text == "mutable" || t.text == "volatile")) {
            if (t.text == "noexcept" && k + 1 < toks.size() &&
                isPunct(toks[k + 1], "(")) {
                const std::size_t nc =
                    matchParen(toks, k + 1, toks.size());
                if (nc == toks.size())
                    return std::string::npos;
                k = nc + 1;
                continue;
            }
            ++k;
            continue;
        }
        if (isPunct(t, "&") || isPunct(t, "&&")) {
            ++k;
            continue;
        }
        if (isPunct(t, "->")) {
            // Trailing return type: skip to the body brace.
            ++k;
            while (k < toks.size() && !isPunct(toks[k], "{") &&
                   !isPunct(toks[k], ";"))
                ++k;
            continue;
        }
        if (isPunct(t, ":")) {
            ctorInit = true;
            ++k;
            continue;
        }
        if (isPunct(t, "(") || (ctorInit && isPunct(t, "{"))) {
            // Constructor initializer `member(expr)` / `member{expr}`
            // groups sit between `:` and the body.
            if (!ctorInit)
                return std::string::npos;
            const std::size_t gc = isPunct(t, "(")
                ? matchParen(toks, k, toks.size())
                : matchBrace(toks, k, toks.size());
            if (gc == toks.size())
                return std::string::npos;
            k = gc + 1;
            // After a group: `,` continues the list, `{` is the
            // body. The `{` case is handled on the next loop pass
            // only if another init follows, so peek here.
            if (k < toks.size() && isPunct(toks[k], ","))
                ++k;
            else if (k < toks.size() && isPunct(toks[k], "{"))
                break;
            continue;
        }
        if (ctorInit && t.kind == TokenKind::Identifier) {
            ++k; // initializer member name (possibly qualified)
            continue;
        }
        if (ctorInit && (isPunct(t, "::") || isPunct(t, "<") ||
                         isPunct(t, ">"))) {
            ++k;
            continue;
        }
        break;
    }
    if (k >= toks.size() || !isPunct(toks[k], "{"))
        return std::string::npos;

    fn.name = name.text;
    fn.line = name.line;
    fn.column = name.column;
    fn.params.clear();
    if (close > i + 2)
        for (const TokenRange &chunk :
             splitAtCommas(toks, i + 2, close))
            fn.params.push_back(paramName(toks, chunk));
    return k;
}

/** The `::`-qualified spelling ending at the identifier `j`
 *  (`std::chrono::now` for `...std :: chrono :: now`), or just the
 *  identifier itself. Member access (`.`/`->`) yields "". */
std::string
qualifiedSpelling(const std::vector<Token> &toks, std::size_t j)
{
    if (j > 0 &&
        (isPunct(toks[j - 1], ".") || isPunct(toks[j - 1], "->")))
        return "";
    std::string name = toks[j].text;
    while (j >= 2 && isPunct(toks[j - 1], "::") &&
           toks[j - 2].kind == TokenKind::Identifier) {
        j -= 2;
        name = toks[j].text + "::" + name;
        if (j > 0 && (isPunct(toks[j - 1], ".") ||
                      isPunct(toks[j - 1], "->")))
            return "";
    }
    return name;
}

/** Collect every `callee(args)` inside [begin, end). */
void
collectCalls(const std::vector<Token> &toks, std::size_t begin,
             std::size_t end, std::vector<CallSite> &out)
{
    for (std::size_t j = begin; j + 1 < end; ++j) {
        const Token &t = toks[j];
        if (t.kind != TokenKind::Identifier ||
            isControlKeyword(t.text) || !isPunct(toks[j + 1], "("))
            continue;
        const std::size_t close =
            matchParen(toks, j + 1, toks.size());
        if (close == toks.size() || close >= end)
            continue;
        CallSite call;
        call.callee = t.text;
        call.qualified = qualifiedSpelling(toks, j);
        call.line = t.line;
        call.column = t.column;
        call.begin = j;
        call.end = close + 1;
        if (close > j + 2)
            call.args = splitAtCommas(toks, j + 2, close);
        out.push_back(std::move(call));
    }
}

/** Classify the flushed statement [s, e) and append it. */
void
flushStatement(const std::vector<Token> &toks, std::size_t s,
               std::size_t e, std::vector<Statement> &out)
{
    if (s >= e)
        return;
    Statement st;
    st.line = toks[s].line;
    st.column = toks[s].column;

    if (toks[s].kind == TokenKind::Identifier &&
        toks[s].text == "return") {
        st.kind = Statement::Kind::Return;
        st.expr = {s + 1, e};
    } else {
        // First assignment operator at depth 0 splits LHS and RHS.
        constexpr std::array<std::string_view, 6> kAssignOps = {
            "=", "+=", "-=", "*=", "/=", "%=",
        };
        std::size_t q = e;
        int depth = 0;
        for (std::size_t j = s; j < e && q == e; ++j) {
            const Token &t = toks[j];
            if (isPunct(t, "(") || isPunct(t, "[") ||
                isPunct(t, "{"))
                ++depth;
            else if (isPunct(t, ")") || isPunct(t, "]") ||
                     isPunct(t, "}"))
                --depth;
            else if (depth == 0 && t.kind == TokenKind::Punct)
                for (const std::string_view op : kAssignOps)
                    if (t.text == op) {
                        q = j;
                        break;
                    }
        }
        if (q < e) {
            bool member = false;
            std::string first;
            std::string last;
            std::size_t idents = 0;
            for (std::size_t j = s; j < q; ++j) {
                const Token &t = toks[j];
                if (isPunct(t, ".") || isPunct(t, "->"))
                    member = true;
                if (t.kind == TokenKind::Identifier) {
                    if (first.empty())
                        first = t.text;
                    last = t.text;
                    ++idents;
                }
            }
            if (idents > 0) {
                st.target = last;
                if (member) {
                    st.kind = Statement::Kind::Assign;
                    if (first != last)
                        st.base = first;
                } else {
                    st.kind = idents >= 2 ? Statement::Kind::Decl
                                          : Statement::Kind::Assign;
                }
                st.expr = {q + 1, e};
            } else {
                st.expr = {s, e};
            }
        } else {
            st.expr = {s, e};
        }
    }
    collectCalls(toks, s, e, st.calls);
    out.push_back(std::move(st));
}

/** Segment the body [open+1, close) into statements. Braces always
 *  end a statement; `;` only at paren/bracket depth 0, so a for-
 *  header stays whole. */
void
parseBody(const std::vector<Token> &toks, std::size_t open,
          std::size_t close, FunctionModel &fn)
{
    int depth = 0;
    std::size_t start = open + 1;
    for (std::size_t j = open + 1; j < close; ++j) {
        const Token &t = toks[j];
        if (isPunct(t, "(") || isPunct(t, "[")) {
            ++depth;
            continue;
        }
        if (isPunct(t, ")") || isPunct(t, "]")) {
            --depth;
            continue;
        }
        const bool boundary =
            (depth == 0 && (isPunct(t, ";") || isPunct(t, "{") ||
                            isPunct(t, "}")));
        if (boundary) {
            flushStatement(toks, start, j, fn.stmts);
            start = j + 1;
        }
    }
    flushStatement(toks, start, close, fn.stmts);
}

} // namespace

FileModel
parseFile(const std::string &path, LexedFile lexed)
{
    FileModel file;
    file.path = path;
    file.lexed = std::move(lexed);
    const auto &toks = file.lexed.tokens;

    std::size_t i = 0;
    while (i + 1 < toks.size()) {
        if (toks[i].kind == TokenKind::Identifier &&
            isPunct(toks[i + 1], "(")) {
            FunctionModel fn;
            const std::size_t bodyOpen =
                recognizeHeader(toks, i, fn);
            if (bodyOpen != std::string::npos) {
                const std::size_t bodyClose =
                    matchBrace(toks, bodyOpen, toks.size());
                if (bodyClose != toks.size()) {
                    fn.qualified = qualifiedSpelling(toks, i);
                    if (fn.qualified.empty())
                        fn.qualified = fn.name;
                    // Return type: the identifier directly before
                    // the (possibly qualified) name, when there is
                    // one (`bool Cache::save(...)` → "bool").
                    std::size_t head = i;
                    while (head >= 2 &&
                           isPunct(toks[head - 1], "::") &&
                           toks[head - 2].kind ==
                               TokenKind::Identifier)
                        head -= 2;
                    if (head > 0 && toks[head - 1].kind ==
                                        TokenKind::Identifier)
                        fn.retType = toks[head - 1].text;
                    fn.bodyBegin = bodyOpen;
                    fn.bodyEnd = bodyClose;
                    parseBody(toks, bodyOpen, bodyClose, fn);
                    file.functions.push_back(std::move(fn));
                    i = bodyClose + 1;
                    continue;
                }
            }
        }
        ++i;
    }
    return file;
}

} // namespace netchar::lint
