#include "stats/json.hh"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace netchar
{

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[name, value] : object)
        if (name == key)
            return &value;
    return nullptr;
}

namespace
{

/** Recursive-descent JSON parser over one document. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    bool parse(JsonValue &out, std::string &error)
    {
        if (!value(out, error))
            return false;
        skipWs();
        if (pos_ != text_.size()) {
            error = "trailing bytes after JSON document at offset " +
                    std::to_string(pos_);
            return false;
        }
        return true;
    }

  private:
    void skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\r' || text_[pos_] == '\n'))
            ++pos_;
    }

    bool fail(std::string &error, const std::string &what)
    {
        error = what + " at offset " + std::to_string(pos_);
        return false;
    }

    bool literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool value(JsonValue &out, std::string &error)
    {
        skipWs();
        if (pos_ >= text_.size())
            return fail(error, "unexpected end of input");
        const char c = text_[pos_];
        if (c == '{')
            return objectValue(out, error);
        if (c == '[')
            return arrayValue(out, error);
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return stringValue(out.string, error);
        }
        if (literal("true")) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return true;
        }
        if (literal("false")) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return true;
        }
        if (literal("null")) {
            out.kind = JsonValue::Kind::Null;
            return true;
        }
        return numberValue(out, error);
    }

    bool objectValue(JsonValue &out, std::string &error)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail(error, "expected object key string");
            std::string key;
            if (!stringValue(key, error))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail(error, "expected ':' after object key");
            ++pos_;
            JsonValue member;
            if (!value(member, error))
                return false;
            out.object.emplace_back(std::move(key),
                                    std::move(member));
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail(error, "expected ',' or '}' in object");
        }
    }

    bool arrayValue(JsonValue &out, std::string &error)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue element;
            if (!value(element, error))
                return false;
            out.array.push_back(std::move(element));
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail(error, "expected ',' or ']' in array");
        }
    }

    bool stringValue(std::string &out, std::string &error)
    {
        ++pos_; // opening quote
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                if (pos_ + 1 >= text_.size())
                    return fail(error, "dangling escape");
                const char esc = text_[pos_ + 1];
                pos_ += 2;
                switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size())
                        return fail(error, "truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_ + i];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |=
                                static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |=
                                static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail(error,
                                        "bad \\u escape digit");
                    }
                    pos_ += 4;
                    // UTF-8 encode the BMP code point (requests
                    // never need surrogate pairs; reject them).
                    if (code >= 0xD800 && code <= 0xDFFF)
                        return fail(error,
                                    "surrogate \\u escapes are not "
                                    "supported");
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out +=
                            static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(
                            0x80 | ((code >> 6) & 0x3F));
                        out +=
                            static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                }
                default:
                    return fail(error, "unknown escape");
                }
                continue;
            }
            out += c;
            ++pos_;
        }
        return fail(error, "unterminated string");
    }

    bool numberValue(JsonValue &out, std::string &error)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return fail(error, "unexpected character");
        // Reject leading zeros ("01"): JSON numbers are canonical,
        // and a sloppy literal must not alias a distinct cache key.
        std::size_t digits = start;
        if (digits < pos_ && text_[digits] == '-')
            ++digits;
        if (digits + 1 < pos_ && text_[digits] == '0' &&
            text_[digits + 1] >= '0' && text_[digits + 1] <= '9')
            return fail(error, "number with leading zero");
        const std::string token(text_.substr(start, pos_ - start));
        try {
            std::size_t used = 0;
            out.number = std::stod(token, &used);
            if (used != token.size())
                throw std::invalid_argument(token);
        } catch (const std::exception &) {
            pos_ = start;
            return fail(error, "malformed number '" + token + "'");
        }
        if (!std::isfinite(out.number)) {
            pos_ = start;
            return fail(error, "non-finite number '" + token + "'");
        }
        // Unsigned from_chars takes no sign, so it reads only digits;
        // it refuses a value past 2^64 - 1.
        std::uint64_t exact = 0;
        const auto [end, ec] =
            std::from_chars(token.data(), token.data() + token.size(), exact);
        if (ec == std::errc() && end == token.data() + token.size())
            out.exactUint = exact;
        out.kind = JsonValue::Kind::Number;
        return true;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

} // namespace

bool
parseJson(std::string_view text, JsonValue &out, std::string &error)
{
    // Reused out-params must not leak members from a previous parse.
    out = JsonValue{};
    return Parser(text).parse(out, error);
}

} // namespace netchar
