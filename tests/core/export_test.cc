#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/export.hh"
#include "stats/rng.hh"
#include "stats/textio.hh"

using namespace netchar;

namespace
{

RunResult
sampleResult()
{
    RunResult r;
    r.counters.instructions = 1000;
    r.counters.cycles = 1500.0;
    r.counters.llcMisses = 3;
    r.slots[sim::SlotNode::Retiring] = 250.0;
    r.slots[sim::SlotNode::FeICache] = 500.0;
    r.slots[sim::SlotNode::BeL3Bound] = 250.0;
    r.events.jitStarted = 4;
    r.seconds = 0.001;
    r.metrics[static_cast<std::size_t>(MetricId::Cpi)] = 1.5;
    r.metrics[static_cast<std::size_t>(MetricId::LlcMpki)] = 3.0;
    return r;
}

} // namespace

TEST(CsvFieldTest, QuotingRules)
{
    EXPECT_EQ(csvField("plain"), "plain");
    EXPECT_EQ(csvField("with,comma"), "\"with,comma\"");
    EXPECT_EQ(csvField("with\"quote"), "\"with\"\"quote\"");
    EXPECT_EQ(csvField("with\nnewline"), "\"with\nnewline\"");
}

TEST(CsvFieldTest, ControlAndUnicodePassThrough)
{
    // Tabs and \x01 contain no comma/quote/newline: no quoting, byte
    // preserving — the consumer sees exactly the original bytes.
    EXPECT_EQ(csvField("a\tb"), "a\tb");
    EXPECT_EQ(csvField(std::string("a\x01") + "b"),
              std::string("a\x01") + "b");
    // Non-ASCII UTF-8 round-trips untouched.
    const std::string utf8 = "caf\xC3\xA9 \xE2\x9C\x93";
    EXPECT_EQ(csvField(utf8), utf8);
    // ... including inside a quoted field.
    EXPECT_EQ(csvField(utf8 + ",x"), "\"" + utf8 + ",x\"");
    EXPECT_EQ(csvField(""), "");
}

TEST(JsonEscapeTest, EscapesSpecials)
{
    EXPECT_EQ(jsonEscape("ab"), "ab");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonEscapeTest, ControlCharacters)
{
    EXPECT_EQ(jsonEscape("a\tb"), "a\\tb");
    EXPECT_EQ(jsonEscape("a\rb"), "a\\rb");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    // All remaining C0 control bytes become \u00XX escapes.
    EXPECT_EQ(jsonEscape(std::string(1, '\x02')), "\\u0002");
    EXPECT_EQ(jsonEscape(std::string(1, '\x1f')), "\\u001f");
    EXPECT_EQ(jsonEscape(std::string(1, '\x7f')),
              std::string(1, '\x7f')); // DEL is not C0: passes
}

TEST(JsonEscapeTest, Utf8RoundTrip)
{
    // JSON is UTF-8: multi-byte sequences pass through unchanged
    // (each byte is >= 0x80, never mistaken for a control char).
    const std::string utf8 = "na\xC3\xAFve \xE6\xB8\xAC\xE5\xAE\x9A";
    EXPECT_EQ(jsonEscape(utf8), utf8);
    // Mixed content: only the ASCII specials are rewritten.
    EXPECT_EQ(jsonEscape("\xC3\xA9\"\n"), "\xC3\xA9\\\"\\n");
}

TEST(ExactDoubleTest, MatchesPrintfG17)
{
    // printf's "%.17g" is the oracle: cache keys and request lines
    // were rendered with it, so every byte must stay the same.
    const auto printed = [](double v) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return std::string(buf);
    };
    const auto exact = [](double v) {
        std::string out = "x";
        appendExactDouble(out, v);
        return out.substr(1); // appends, keeping what was there
    };
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> values = {
        0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 2.5, 123456789.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::nextafter(std::numeric_limits<double>::min(), 0.0),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(), inf, -inf, nan, -nan};
    // Around %g's switch points (exponent below -5, or at least the
    // precision 17) and every power of ten in between.
    for (int e = -8; e <= 20; ++e) {
        const double p = std::pow(10.0, e);
        values.push_back(p);
        values.push_back(std::nextafter(p, 0.0));
        values.push_back(std::nextafter(p, inf));
    }
    values.push_back(1e-5);
    values.push_back(1e17);
    values.push_back(99999999999999999.0);
    values.push_back(0.000099999999999999999);
    // Seeded bit patterns (every exponent, subnormals and NaN
    // payloads) and seeded values at every decimal scale.
    stats::Rng rng(34);
    for (int i = 0; i < 100000; ++i) {
        values.push_back(std::bit_cast<double>(rng.next()));
        values.push_back(rng.uniform(-1.0, 1.0) *
                         std::pow(10.0, rng.uniform(-320.0, 309.0)));
    }
    for (const double v : values)
        ASSERT_EQ(exact(v), printed(v)) << printed(v);
}

TEST(MetricsCsvTest, HeaderAndRows)
{
    const auto csv = metricsCsv({"bench1"}, {sampleResult()});
    // Header starts with benchmark and contains Table I names.
    EXPECT_EQ(csv.rfind("benchmark,", 0), 0u);
    EXPECT_NE(csv.find("LLC misses"), std::string::npos);
    // One data row with the CPI value.
    EXPECT_NE(csv.find("\nbench1,"), std::string::npos);
    EXPECT_NE(csv.find(",1.5,"), std::string::npos);
    // 1 header + 1 data row.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
}

TEST(MetricsCsvTest, LengthMismatchThrows)
{
    EXPECT_THROW(metricsCsv({"a", "b"}, {sampleResult()}),
                 std::invalid_argument);
}

TEST(TopdownCsvTest, FractionsAppear)
{
    const auto csv = topdownCsv({"b"}, {sampleResult()});
    EXPECT_NE(csv.find("retiring"), std::string::npos);
    // Retiring fraction is 250/1000 = 0.25.
    EXPECT_NE(csv.find("b,0.25,"), std::string::npos);
}

TEST(JsonTest, RunResultStructure)
{
    const auto json = runResultJson("my \"bench\"", sampleResult());
    EXPECT_NE(json.find("\"benchmark\":\"my \\\"bench\\\"\""),
              std::string::npos);
    EXPECT_NE(json.find("\"instructions\":1000"), std::string::npos);
    EXPECT_NE(json.find("\"LLC misses\":3"), std::string::npos);
    EXPECT_NE(json.find("\"retiring\":0.25"), std::string::npos);
    EXPECT_NE(json.find("\"jit_started\":4"), std::string::npos);
    // Balanced braces (rough structural sanity).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(JsonTest, SuiteArray)
{
    const auto json =
        suiteJson({"a", "b"}, {sampleResult(), sampleResult()});
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
    EXPECT_NE(json.find("\"benchmark\":\"a\""), std::string::npos);
    EXPECT_NE(json.find("\"benchmark\":\"b\""), std::string::npos);
    EXPECT_THROW(suiteJson({"a"}, {}), std::invalid_argument);
}
