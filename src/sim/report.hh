/**
 * @file
 * The ASCII bar the figure benches (fig6, fig7) draw next to their
 * speedup rows. Table rows themselves are printf calls in each bench.
 */

#ifndef SSMT_SIM_REPORT_HH
#define SSMT_SIM_REPORT_HH

#include <string>

namespace ssmt
{
namespace sim
{

/**
 * Render @p value as an ASCII bar: one '#' per @p unit, capped at
 * @p max_chars. Used by the figure benches to sketch bar charts in
 * a terminal.
 */
std::string asciiBar(double value, double unit, int max_chars = 60);

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_REPORT_HH
