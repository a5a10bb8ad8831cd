#include "stats/textio.hh"

#include <cstdio>

namespace netchar
{

void
appendExactDouble(std::string &out, double value)
{
    char buf[32]; // "-1.2345678901234567e-308" is the longest: 24
    const auto result = std::to_chars(buf, buf + sizeof buf, value,
                                      std::chars_format::general, 17);
    out.append(buf, result.ptr);
}

std::string
csvField(const std::string &raw)
{
    if (raw.find_first_of(",\"\n") == std::string::npos)
        return raw;
    std::string out = "\"";
    for (char c : raw) {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    out += '"';
    return out;
}

std::string
jsonEscape(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (char c : raw) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace netchar
