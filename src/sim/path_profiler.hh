/**
 * @file
 * Offline path characterization (paper Section 3.1): runs a program
 * functionally against the baseline hardware predictor while
 * tracking *every* path exhaustively (no Path Cache capacity limit),
 * exactly as the paper's Tables 1 and 2 measure.
 *
 * One profiling pass produces, for each configured n:
 *  - the number of unique paths and their average scope (Table 1)
 *  - difficult-path counts for any threshold T   (Table 1)
 *  - misprediction/execution coverage of difficult paths (Table 2)
 * plus the per-static-branch equivalents (Table 2's "Branch"
 * columns).
 */

#ifndef SSMT_SIM_PATH_PROFILER_HH
#define SSMT_SIM_PATH_PROFILER_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/path_id.hh"
#include "isa/program.hh"

namespace ssmt
{
namespace sim
{

class PathProfiler
{
  public:
    explicit PathProfiler(std::vector<int> ns = {4, 10, 16});

    /** Execute @p prog (functionally) and collect path statistics. */
    void profile(const isa::Program &prog, uint64_t max_insts);

    uint64_t dynamicInsts() const { return dynamicInsts_; }
    /** Terminating-branch executions. */
    uint64_t branchExecs() const { return branchExecs_; }
    /** Hardware mispredictions of terminating branches. */
    uint64_t mispredicts() const { return mispredicts_; }

    // ---- Table 1 ----
    uint64_t uniquePaths(int n) const;
    double avgScope(int n) const;
    uint64_t difficultPaths(int n, double threshold) const;

    /** Path_Ids of the difficult paths, mispredict-heaviest first —
     *  the "profiling output" a compile-time implementation would
     *  feed back as MachineConfig::staticDifficultHints. */
    std::vector<core::PathId> difficultPathIds(int n,
                                               double threshold) const;

    /**
     * Persist hints to a file (one hex id per line, '#' comments) —
     * the artifact a profile-guided build would ship. Written with
     * writeFileAtomic, so a failed save leaves any old file intact.
     * @return false on I/O failure.
     */
    static bool saveHints(const std::string &filename,
                          const std::vector<core::PathId> &hints);

    /** Load hints written by saveHints(). Throws SimError(IoError)
     *  when the file cannot be read, and SimError(ParseError) naming
     *  the line when a non-empty, non-'#' line is not exactly one hex
     *  Path_Id — a hinted experiment never silently runs unhinted. */
    static std::vector<core::PathId>
    loadHints(const std::string &filename);

    // ---- Table 2 ----
    double branchMisCoverage(double threshold) const;
    double branchExeCoverage(double threshold) const;
    double pathMisCoverage(int n, double threshold) const;
    double pathExeCoverage(int n, double threshold) const;

    /** Static branches observed (for diagnostics). */
    uint64_t uniqueBranches() const { return branchStats_.size(); }

  private:
    struct Counts
    {
        uint64_t occurrences = 0;
        uint64_t mispredicts = 0;
        uint64_t scopeSum = 0;      ///< paths only

        bool
        difficult(double threshold) const
        {
            return occurrences > 0 &&
                   static_cast<double>(mispredicts) / occurrences >
                       threshold;
        }
    };

    std::vector<int> ns_;
    std::vector<std::unordered_map<core::PathId, Counts>> pathStats_;
    std::unordered_map<uint64_t, Counts> branchStats_;
    uint64_t dynamicInsts_ = 0;
    uint64_t branchExecs_ = 0;
    uint64_t mispredicts_ = 0;

    const std::unordered_map<core::PathId, Counts> &mapFor(int n) const;
};

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_PATH_PROFILER_HH
