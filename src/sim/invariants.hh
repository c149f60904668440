/**
 * @file
 * StatsChecker: machine-checked conservation laws over sim::Stats.
 *
 * The ~40 counters a run produces are not independent — every spawn
 * attempt resolves to exactly one outcome, every consumed microthread
 * prediction is classified exactly once, a path cannot be demoted
 * more often than it was promoted, and so on. A refactor that
 * silently breaks one of these relations produces plausible-looking
 * numbers that no longer describe the paper's machine. The checker
 * encodes each relation once, names it, and runs at the end of every
 * run (sim::runProgramChecked), so a violated relation fails the run
 * with SimError(InvariantViolation) naming it instead of flowing into
 * a results table.
 *
 * Every relation listed here holds in *all* five machine modes; the
 * cross-mode relations that depend on comparing runs live in
 * sim::checkVerifyGolden (sim/golden.hh).
 */

#ifndef SSMT_SIM_INVARIANTS_HH
#define SSMT_SIM_INVARIANTS_HH

#include <string>
#include <vector>

#include "sim/stats.hh"

namespace ssmt
{
namespace sim
{

/** One violated cross-counter relation. */
struct InvariantViolation
{
    std::string relation;   ///< stable name, e.g. "spawn-conservation"
    std::string detail;     ///< the relation with its actual values
};

class StatsChecker
{
  public:
    /**
     * Validate every cross-counter invariant of @p stats.
     * @return the violated relations (empty = consistent).
     */
    static std::vector<InvariantViolation> check(const Stats &stats);

    /** Render @p violations one-per-line for diagnostics. */
    static std::string
    describe(const std::vector<InvariantViolation> &violations);
};

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_INVARIANTS_HH
