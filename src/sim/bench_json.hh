/**
 * @file
 * BenchJson::escape: perfbench/perfbench.cc escapes its result
 * strings through it. It stays because files under perfbench/
 * change only in a change to the benchmark itself.
 */

#ifndef SSMT_SIM_BENCH_JSON_HH
#define SSMT_SIM_BENCH_JSON_HH

#include "sim/json_text.hh"

namespace ssmt
{
namespace sim
{

struct BenchJson
{
    /** @p text escaped for a JSON string literal, as a new string. */
    static std::string
    escape(const std::string &text)
    {
        std::string out;
        appendJsonEscaped(out, text);
        return out;
    }
};

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_BENCH_JSON_HH
