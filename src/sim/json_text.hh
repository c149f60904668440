/**
 * @file
 * A minimal JSON reader for the simulator's own machine-readable
 * artifacts (`ssmt-golden-v1` golden-stats snapshots, campaign
 * specs, journals, manifests and job results), plus the string
 * escaper of their one writer, sim::SnapshotWriter.
 *
 * This is deliberately not a general-purpose JSON library: it parses
 * the documents our emitters write (objects, arrays, strings,
 * numbers, booleans, null) so that the diff/verify tooling and the
 * round-trip tests need no external dependency. Integer-valued
 * number tokens are kept exactly in a uint64_t — counter comparison
 * must not go through a double and lose low bits on long runs.
 */

#ifndef SSMT_SIM_JSON_TEXT_HH
#define SSMT_SIM_JSON_TEXT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ssmt
{
namespace sim
{

struct JsonValue
{
    enum class Kind : uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Object,
        Array
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    /** Numeric payload; for integer tokens `integer` is exact. */
    double number = 0.0;
    uint64_t integer = 0;
    bool isInteger = false;
    std::string text;
    /** Object members in document order (duplicate keys preserved). */
    std::vector<std::pair<std::string, JsonValue>> members;
    std::vector<JsonValue> items;

    /** First member named @p key, or nullptr (objects only). */
    const JsonValue *find(const std::string &key) const;

    /** Convenience: uint64 of a Number member, or @p fallback. */
    uint64_t u64(const std::string &key, uint64_t fallback = 0) const;

    /** Convenience: text of a String member, or "". */
    std::string str(const std::string &key) const;
};

/**
 * Parse @p text into @p out. @return true on success; on failure
 * @p err (if non-null) receives a message with the byte offset.
 * Trailing non-whitespace after the document is an error, and so is
 * nesting deeper than a fixed cap far above any document we write.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string *err = nullptr);

/**
 * Append @p text to @p out as the body of a JSON string literal
 * (without the quotes): `"` and `\` get a backslash, newline, tab
 * and carriage return their short forms, and every other control
 * character a `\u00XX` escape. SnapshotWriter, the one JSON writer,
 * and perfbench (through BenchJson::escape) share this one escape
 * set, so every string value serializes canonically.
 */
void appendJsonEscaped(std::string &out, std::string_view text);

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_JSON_TEXT_HH
