/**
 * @file
 * Edge-case tests for the minimal JSON reader — in particular the
 * number paths: negative values, literals beyond uint64_t range,
 * exponent forms and "-0" must never reach the undefined
 * double-to-uint64_t cast in JsonValue::u64().
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "sim/golden.hh"
#include "sim/json_text.hh"
#include "sim/stats.hh"

namespace
{

using namespace ssmt;
using sim::JsonValue;

JsonValue
parse(const std::string &text)
{
    JsonValue root;
    std::string err;
    EXPECT_TRUE(sim::parseJson(text, root, &err)) << err;
    return root;
}

TEST(JsonTextTest, NegativeIntegerFallsBackInU64)
{
    JsonValue root = parse("{\"n\": -5}");
    const JsonValue *v = root.find("n");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->kind, JsonValue::Kind::Number);
    EXPECT_FALSE(v->isInteger);
    EXPECT_DOUBLE_EQ(v->number, -5.0);
    // A negative double cannot represent a counter; u64 must take
    // the fallback, not cast (which would be undefined behavior).
    EXPECT_EQ(root.u64("n", 42), 42u);
}

TEST(JsonTextTest, Uint64MaxParsesExactly)
{
    JsonValue root = parse("{\"n\": 18446744073709551615}");
    const JsonValue *v = root.find("n");
    ASSERT_NE(v, nullptr);
    EXPECT_TRUE(v->isInteger);
    EXPECT_EQ(v->integer, UINT64_MAX);
    EXPECT_EQ(root.u64("n", 0), UINT64_MAX);
}

TEST(JsonTextTest, BeyondUint64RangeFallsBack)
{
    // 2^64 overflows strtoull (ERANGE): the token must lose its
    // exact-integer claim and u64 must range-check the double view.
    JsonValue root = parse("{\"n\": 18446744073709551616}");
    const JsonValue *v = root.find("n");
    ASSERT_NE(v, nullptr);
    EXPECT_FALSE(v->isInteger);
    EXPECT_EQ(root.u64("n", 7), 7u);

    // Way beyond double range: strtod yields +inf.
    JsonValue huge = parse("{\"n\": 1" + std::string(400, '0') + "}");
    EXPECT_EQ(huge.u64("n", 9), 9u);
}

TEST(JsonTextTest, ExponentFormConverts)
{
    JsonValue root = parse("{\"n\": 1e3, \"frac\": 2.5}");
    const JsonValue *v = root.find("n");
    ASSERT_NE(v, nullptr);
    EXPECT_FALSE(v->isInteger);
    EXPECT_EQ(root.u64("n", 0), 1000u);
    EXPECT_EQ(root.u64("frac", 0), 2u);     // truncates like a cast
}

TEST(JsonTextTest, NegativeZeroIsZero)
{
    JsonValue root = parse("{\"n\": -0}");
    const JsonValue *v = root.find("n");
    ASSERT_NE(v, nullptr);
    EXPECT_FALSE(v->isInteger);
    EXPECT_EQ(root.u64("n", 5), 0u);
}

TEST(JsonTextTest, NonNumberAndMissingKeysFallBack)
{
    JsonValue root = parse("{\"s\": \"text\", \"b\": true}");
    EXPECT_EQ(root.u64("s", 3), 3u);
    EXPECT_EQ(root.u64("b", 3), 3u);
    EXPECT_EQ(root.u64("absent", 3), 3u);
}

TEST(JsonTextTest, EveryStatsCounterRoundTripsAtUint64Max)
{
    // Serialize the full canonical counter set at the most hostile
    // value and read each one back exactly: no counter name may
    // lose bits through the parser.
    sim::Stats zero{};
    auto fields = sim::flattenStats(zero);
    ASSERT_FALSE(fields.empty());
    std::string doc = "{";
    for (size_t i = 0; i < fields.size(); i++) {
        if (i)
            doc += ", ";
        doc += "\"" + fields[i].first + "\": 18446744073709551615";
    }
    doc += "}";

    JsonValue root = parse(doc);
    for (const auto &field : fields)
        EXPECT_EQ(root.u64(field.first, 0), UINT64_MAX) << field.first;
}

TEST(JsonTextTest, DeepNestingFailsInsteadOfOverflowingTheStack)
{
    // Hostile documents from disk or a pipe: each would recurse once
    // per level without a cap.
    const size_t kLevels = 100000;
    std::string arrays(kLevels, '[');
    std::string objects;
    for (size_t i = 0; i < kLevels; i++)
        objects += "{\"a\":";
    for (const std::string *doc : {&arrays, &objects}) {
        JsonValue root;
        std::string err;
        EXPECT_FALSE(sim::parseJson(*doc, root, &err));
        EXPECT_NE(err.find("nesting deeper than"), std::string::npos)
            << err;
    }
}

TEST(JsonTextTest, ModerateNestingStillParses)
{
    const size_t kLevels = 200;
    JsonValue root =
        parse(std::string(kLevels, '[') + std::string(kLevels, ']'));
    size_t depth = 1;
    for (const JsonValue *v = &root; !v->items.empty(); v = &v->items[0])
        depth++;
    EXPECT_EQ(depth, kLevels);
}

} // namespace
