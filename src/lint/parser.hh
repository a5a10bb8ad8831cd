/**
 * @file
 * A declaration-level recognizer over the netchar-lint token stream.
 *
 * This is deliberately not a C++ parser. The taint pass (taint.hh)
 * only needs to know, per function: its name and parameters, the
 * assignments/declarations inside its body (target name + RHS token
 * range), the calls it makes (callee + per-argument token ranges)
 * and what it returns. A recognizer tuned to this codebase's idiom —
 * free functions and `Class::method` definitions with brace bodies,
 * `target = expr;` statements, `callee(arg, ...)` calls — recovers
 * all of that from the token stream without a grammar. Constructs it
 * does not understand are simply skipped: the analysis is best-
 * effort by design, and the token rules (rules.hh) remain the
 * call-site backstop.
 *
 * Known approximations, on purpose:
 *  - namespace-scope initializers are not attributed to a function;
 *  - lambda bodies are attributed to the enclosing function (which
 *    matches by-reference capture, the repo's idiom);
 *  - `Type name(args);` ctor-style declarations are treated as
 *    calls, not declarations (the `=` forms carry the taint).
 */

#ifndef NETCHAR_LINT_PARSER_HH
#define NETCHAR_LINT_PARSER_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "lint/lexer.hh"

namespace netchar::lint
{

/** Half-open token-index range into a LexedFile's token vector. */
using TokenRange = std::pair<std::size_t, std::size_t>;

/** One call expression found inside a statement. */
struct CallSite
{
    std::string callee; ///< unqualified name (last :: component)
    /** The written `::`-qualified spelling (`ns::f` for `ns::f()`),
     *  equal to `callee` for bare calls, and empty for member calls
     *  (`obj.method()` — the receiver type is unknown here). */
    std::string qualified;
    int line = 0;
    int column = 0;
    /** Position among the file's call sites, in function, statement
     *  and call order: the call graph's resolution table index. */
    std::size_t ordinal = 0;
    std::size_t begin = 0;       ///< token index of the callee
    std::size_t end = 0;         ///< one past the closing ')'
    std::vector<TokenRange> args; ///< per-argument token ranges
};

/** One recovered statement of a function body. */
struct Statement
{
    enum class Kind
    {
        Decl,   ///< `Type name = expr;` / `using N = T;`
        Assign, ///< `name = expr;`, `obj.field += expr;`
        Return, ///< `return expr;`
        Expr,   ///< anything else (calls still recovered)
    };

    Kind kind = Kind::Expr;
    std::string target; ///< assigned/declared name (Decl/Assign)
    /** Base object of a member assignment (`opts` in
     *  `opts.field = x`); empty otherwise. */
    std::string base;
    int line = 0;   ///< first token's line (pragma anchor)
    int column = 0;
    TokenRange expr{0, 0}; ///< RHS / returned expression tokens
    std::vector<CallSite> calls; ///< calls anywhere in the statement
};

/** One recovered function (or method) definition. */
struct FunctionModel
{
    std::string name; ///< unqualified (last :: component)
    /** The written qualified name (`Executor::forEach` for an
     *  out-of-class definition), equal to `name` when unqualified. */
    std::string qualified;
    int line = 0;
    int column = 0;
    /** Token indices of the body braces: `{` at bodyBegin, matching
     *  `}` at bodyEnd. The CFG builder (cfg.hh) re-walks this range
     *  because stmts flattens control structure away. */
    std::size_t bodyBegin = 0;
    std::size_t bodyEnd = 0;
    std::vector<std::string> params; ///< "" for unnamed parameters
    std::vector<Statement> stmts;
};

/** One parsed file: the token stream plus its recovered functions. */
struct FileModel
{
    std::string path;
    LexedFile lexed; ///< owns the tokens the ranges index into
    std::vector<FunctionModel> functions;
};

/** Recover the declaration-level model of one lexed file. */
FileModel parseFile(const std::string &path, LexedFile lexed);

} // namespace netchar::lint

#endif // NETCHAR_LINT_PARSER_HH
