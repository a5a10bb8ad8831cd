/**
 * @file
 * The repo's one JSON reader: a strict recursive-descent parser into
 * a minimal document model (no external library).
 *
 * It reads both outside bytes that must not crash the process (the
 * serve daemon's NDJSON requests, the bench harness's baseline
 * reports) and the repo's own renderings. Strict means: exactly one
 * document with nothing but whitespace after it, no leading zeros,
 * no non-finite numbers, no surrogate \u escapes. Writers therefore
 * emit `null` for non-finite values.
 */

#ifndef NETCHAR_STATS_JSON_HH
#define NETCHAR_STATS_JSON_HH

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace netchar
{

/** One parsed JSON value. Object members keep source order. */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    /** Object member by key; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view key) const;

    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isObject() const { return kind == Kind::Object; }
};

/**
 * Parse one JSON document. Returns false with a descriptive message
 * (naming the byte offset) in `error` on malformed input; trailing
 * bytes after the document are an error too.
 */
bool parseJson(std::string_view text, JsonValue &out,
               std::string &error);

} // namespace netchar

#endif // NETCHAR_STATS_JSON_HH
