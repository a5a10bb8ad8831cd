#include "lint/cfg.hh"

#include <algorithm>
#include <string>

#include "lint/tokens.hh"

namespace netchar::lint
{

namespace
{

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/**
 * Recursive-descent basic-block builder over one body token range.
 * `cur_` is the block under construction; `terminated_` means the
 * current path already edged away (return/break/continue), so the
 * next statement starts a fresh — possibly unreachable — block.
 */
class Builder
{
  public:
    Builder(const std::vector<Token> &toks, std::size_t bodyOpen,
            std::size_t bodyClose)
        : toks_(toks)
    {
        cfg_.blocks.resize(2); // entry, exit
        cur_ = Cfg::kEntry;
        parseSeq(bodyOpen + 1, bodyClose, nullptr, nullptr);
        if (!terminated_)
            edge(cur_, Cfg::kExit);
        finalize();
    }

    Cfg take() { return std::move(cfg_); }

  private:
    const std::vector<Token> &toks_;
    Cfg cfg_;
    std::size_t cur_ = 0;
    bool terminated_ = false;

    std::size_t newBlock()
    {
        cfg_.blocks.emplace_back();
        return cfg_.blocks.size() - 1;
    }

    void edge(std::size_t from, std::size_t to)
    {
        cfg_.blocks[from].succs.push_back(to);
    }

    void addStmt(std::size_t block, std::size_t begin,
                 std::size_t end)
    {
        if (begin >= end)
            return;
        CfgStmt s;
        s.begin = begin;
        s.end = end;
        s.line = toks_[begin].line;
        s.column = toks_[begin].column;
        cfg_.blocks[block].stmts.push_back(s);
    }

    /** Parse every statement in [i, end). */
    void parseSeq(std::size_t i, std::size_t end,
                  std::vector<std::size_t> *brks,
                  std::vector<std::size_t> *conts)
    {
        while (i < end) {
            if (terminated_) {
                cur_ = newBlock(); // dead code after return/break
                terminated_ = false;
            }
            i = parseOne(i, end, brks, conts);
        }
    }

    /** Parse one statement starting at `i`; return the index just
     *  past it. `brks`/`conts` collect blocks whose `break`/
     *  `continue` edges are patched once the target exists. */
    std::size_t parseOne(std::size_t i, std::size_t end,
                         std::vector<std::size_t> *brks,
                         std::vector<std::size_t> *conts)
    {
        const Token &t = toks_[i];

        if (isPunct(t, ";"))
            return i + 1;

        if (isPunct(t, "{")) {
            const std::size_t close = matchBrace(toks_, i, end);
            parseSeq(i + 1, close, brks, conts);
            return close + 1;
        }

        if (isId(t, "if"))
            return parseIf(i, end, brks, conts);
        if (isId(t, "while") || isId(t, "for"))
            return parseLoop(i, end);
        if (isId(t, "do"))
            return parseDoWhile(i, end);
        if (isId(t, "switch"))
            return parseSwitch(i, end, conts);
        if (isId(t, "try"))
            return parseTry(i, end, brks, conts);

        if (isId(t, "return")) {
            const std::size_t semi = findSemi(i + 1, end);
            addStmt(cur_, i, semi);
            edge(cur_, Cfg::kExit);
            terminated_ = true;
            return semi + 1;
        }
        if (isId(t, "break") || isId(t, "continue")) {
            std::vector<std::size_t> *pending =
                t.text == "break" ? brks : conts;
            if (pending != nullptr) {
                addStmt(cur_, i, i + 1);
                pending->push_back(cur_);
                terminated_ = true;
            }
            const std::size_t semi = findSemi(i + 1, end);
            return semi + 1;
        }

        // Plain statement: everything up to the `;` at depth 0.
        const std::size_t semi = findSemi(i, end);
        addStmt(cur_, i, semi);
        return semi + 1;
    }

    /** First `;` at paren/bracket depth 0 from `i`, skipping brace
     *  groups in expression position (lambdas, brace-init) whole. */
    std::size_t findSemi(std::size_t i, std::size_t end) const
    {
        int depth = 0;
        while (i < end) {
            const Token &t = toks_[i];
            if (isPunct(t, "(") || isPunct(t, "["))
                ++depth;
            else if (isPunct(t, ")") || isPunct(t, "]"))
                --depth;
            else if (isPunct(t, "{")) {
                i = matchBrace(toks_, i, end);
                if (i >= end)
                    return end;
            } else if (depth <= 0 && isPunct(t, ";"))
                return i;
            ++i;
        }
        return end;
    }

    std::size_t parseIf(std::size_t i, std::size_t end,
                        std::vector<std::size_t> *brks,
                        std::vector<std::size_t> *conts)
    {
        const std::size_t close = matchParen(toks_, i + 1, end);
        addStmt(cur_, i, close + 1);
        const std::size_t condBlock = cur_;

        const std::size_t thenBlock = newBlock();
        edge(condBlock, thenBlock);
        cur_ = thenBlock;
        terminated_ = false;
        std::size_t j = parseOne(close + 1, end, brks, conts);
        const std::size_t thenEnd = cur_;
        const bool thenTerm = terminated_;

        if (j < end && isId(toks_[j], "else")) {
            const std::size_t elseBlock = newBlock();
            edge(condBlock, elseBlock);
            cur_ = elseBlock;
            terminated_ = false;
            j = parseOne(j + 1, end, brks, conts);
            const std::size_t elseEnd = cur_;
            const bool elseTerm = terminated_;

            const std::size_t join = newBlock();
            if (!thenTerm)
                edge(thenEnd, join);
            if (!elseTerm)
                edge(elseEnd, join);
            cur_ = join;
            terminated_ = false;
            return j;
        }

        const std::size_t join = newBlock();
        edge(condBlock, join);
        if (!thenTerm)
            edge(thenEnd, join);
        cur_ = join;
        terminated_ = false;
        return j;
    }

    /** `while (cond) body` / `for (init; cond; step) body`: the
     *  whole header is one statement of the loop-head block;
     *  `continue` re-enters the head (for the `for` form this skips
     *  the step expression — the head statement contains it). */
    std::size_t parseLoop(std::size_t i, std::size_t end)
    {
        const std::size_t close = matchParen(toks_, i + 1, end);
        const std::size_t head = newBlock();
        if (!terminated_)
            edge(cur_, head);
        addStmt(head, i, close + 1);

        const std::size_t body = newBlock();
        edge(head, body);
        cur_ = body;
        terminated_ = false;
        std::vector<std::size_t> brks;
        std::vector<std::size_t> conts;
        const std::size_t j =
            parseOne(close + 1, end, &brks, &conts);
        for (const std::size_t c : conts)
            edge(c, head);
        if (!terminated_)
            edge(cur_, head); // back edge

        const std::size_t after = newBlock();
        edge(head, after);
        for (const std::size_t b : brks)
            edge(b, after);
        cur_ = after;
        terminated_ = false;
        return j;
    }

    std::size_t parseDoWhile(std::size_t i, std::size_t end)
    {
        const std::size_t body = newBlock();
        if (!terminated_)
            edge(cur_, body);
        cur_ = body;
        terminated_ = false;
        std::vector<std::size_t> brks;
        std::vector<std::size_t> conts;
        std::size_t j = parseOne(i + 1, end, &brks, &conts);

        const std::size_t cond = newBlock();
        if (!terminated_)
            edge(cur_, cond);
        for (const std::size_t c : conts)
            edge(c, cond);
        if (j < end && isId(toks_[j], "while")) {
            const std::size_t close = matchParen(toks_, j + 1, end);
            addStmt(cond, j, close + 1);
            j = close + 1;
            if (j < end && isPunct(toks_[j], ";"))
                ++j;
        }
        edge(cond, body); // back edge: the body runs at least once

        const std::size_t after = newBlock();
        edge(cond, after);
        for (const std::size_t b : brks)
            edge(b, after);
        cur_ = after;
        terminated_ = false;
        return j;
    }

    std::size_t parseSwitch(std::size_t i, std::size_t end,
                            std::vector<std::size_t> *conts)
    {
        const std::size_t close = matchParen(toks_, i + 1, end);
        addStmt(cur_, i, close + 1);
        const std::size_t head = cur_;

        std::size_t j = close + 1;
        if (j >= end || !isPunct(toks_[j], "{")) {
            // Malformed / macro switch: treat as a plain statement.
            terminated_ = false;
            return findSemi(j, end) + 1;
        }
        const std::size_t bodyClose = matchBrace(toks_, j, end);

        std::vector<std::size_t> brks;
        bool hasDefault = false;
        std::size_t prevEnd = kNone;
        bool prevTerm = true;
        std::size_t pos = j + 1;
        while (pos < bodyClose) {
            if (isId(toks_[pos], "case") ||
                isId(toks_[pos], "default")) {
                hasDefault |= toks_[pos].text == "default";
                // Swallow the label through its `:`.
                while (pos < bodyClose && !isPunct(toks_[pos], ":"))
                    ++pos;
                ++pos;
                const std::size_t section = newBlock();
                edge(head, section);
                if (prevEnd != kNone && !prevTerm)
                    edge(prevEnd, section); // fallthrough
                cur_ = section;
                terminated_ = false;
                // Statements up to the next label or the end.
                while (pos < bodyClose &&
                       !isId(toks_[pos], "case") &&
                       !isId(toks_[pos], "default")) {
                    if (terminated_) {
                        cur_ = newBlock();
                        terminated_ = false;
                    }
                    pos = parseOne(pos, bodyClose, &brks, conts);
                }
                prevEnd = cur_;
                prevTerm = terminated_;
                continue;
            }
            // Statements before the first label never execute;
            // still parse them for deterministic block counts.
            pos = parseOne(pos, bodyClose, &brks, conts);
        }

        const std::size_t after = newBlock();
        if (!hasDefault)
            edge(head, after);
        if (prevEnd != kNone && !prevTerm)
            edge(prevEnd, after);
        for (const std::size_t b : brks)
            edge(b, after);
        cur_ = after;
        terminated_ = false;
        return bodyClose + 1;
    }

    /** `try { ... } catch (...) { ... }`: the try body is inlined;
     *  each handler is an optional branch from the block that
     *  entered the try, re-joining after the statement. */
    std::size_t parseTry(std::size_t i, std::size_t end,
                         std::vector<std::size_t> *brks,
                         std::vector<std::size_t> *conts)
    {
        const std::size_t entryBlock = cur_;
        std::size_t j = i + 1;
        if (j < end && isPunct(toks_[j], "{")) {
            const std::size_t close = matchBrace(toks_, j, end);
            parseSeq(j + 1, close, brks, conts);
            j = close + 1;
        }
        std::vector<std::size_t> joins;
        if (!terminated_)
            joins.push_back(cur_);

        while (j < end && isId(toks_[j], "catch")) {
            const std::size_t close = matchParen(toks_, j + 1, end);
            const std::size_t handler = newBlock();
            edge(entryBlock, handler);
            cur_ = handler;
            terminated_ = false;
            j = close + 1;
            if (j < end)
                j = parseOne(j, end, brks, conts);
            if (!terminated_)
                joins.push_back(cur_);
        }

        const std::size_t after = newBlock();
        for (const std::size_t b : joins)
            edge(b, after);
        cur_ = after;
        terminated_ = false;
        return j;
    }

    void finalize()
    {
        for (BasicBlock &b : cfg_.blocks) {
            std::sort(b.succs.begin(), b.succs.end());
            b.succs.erase(
                std::unique(b.succs.begin(), b.succs.end()),
                b.succs.end());
        }
        // Reachability from the entry, in deterministic order.
        std::vector<std::size_t> work{Cfg::kEntry};
        cfg_.blocks[Cfg::kEntry].reachable = true;
        while (!work.empty()) {
            const std::size_t b = work.back();
            work.pop_back();
            for (const std::size_t s : cfg_.blocks[b].succs)
                if (!cfg_.blocks[s].reachable) {
                    cfg_.blocks[s].reachable = true;
                    work.push_back(s);
                }
        }
    }
};

} // namespace

std::size_t
Cfg::edgeCount() const
{
    std::size_t n = 0;
    for (const BasicBlock &b : blocks)
        n += b.succs.size();
    return n;
}

Cfg
buildCfg(const std::vector<Token> &tokens, std::size_t bodyOpen,
         std::size_t bodyClose)
{
    return Builder(tokens, bodyOpen, bodyClose).take();
}

Cfg
buildCfg(const FileModel &file, const FunctionModel &fn)
{
    return buildCfg(file.lexed.tokens, fn.bodyBegin, fn.bodyEnd);
}

} // namespace netchar::lint
