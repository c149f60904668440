#include "sim/report.hh"

#include <cmath>

namespace ssmt
{
namespace sim
{

std::string
asciiBar(double value, double unit, int max_chars)
{
    if (max_chars <= 0 || unit <= 0.0)
        return "";
    // value/unit can be NaN or ±inf (e.g. an IPC ratio over a run
    // that made no progress); casting those to int is undefined
    // behavior, so clamp in the double domain first.
    double scaled = value / unit;
    if (std::isnan(scaled) || scaled <= 0.0)
        return "";
    if (scaled >= static_cast<double>(max_chars))
        return std::string(static_cast<size_t>(max_chars), '#');
    return std::string(static_cast<size_t>(scaled), '#');
}

} // namespace sim
} // namespace ssmt
