/**
 * @file
 * BenchJson: machine-readable benchmark-result emitter.
 *
 * Every bench binary records its suite wall-clock and per-job host
 * timings (plus the headline simulated statistics) into a
 * `BENCH_<name>.json` file, so the performance trajectory of both
 * the simulator and the mechanism is preserved across commits
 * instead of living only in scrollback.
 *
 * Schema (`"schema": "ssmt-bench-v1"`):
 *
 *   {
 *     "schema": "ssmt-bench-v1",
 *     "bench": "fig7_realistic",        // binary name sans prefix
 *     "quick": false,                   // --quick subset?
 *     "jobs": 8,                        // worker threads used
 *     "hostThreads": 8,                 // hardware_concurrency()
 *     "suiteWallSeconds": 12.34,        // end-to-end wall clock
 *     "jobSecondsTotal": 80.1,          // sum of per-job host time
 *     "runs": [                         // one entry per (workload,
 *       {                               //  config) simulation cell
 *         "workload": "go",
 *         "config": "microthread",
 *         "hostSeconds": 1.25,
 *         "cycles": 123, "retiredInsts": 456, "ipc": 3.7,
 *         "condBranches": 9, "condHwMispredicts": 2,
 *         "usedMispredicts": 1, "spawnAttempts": 4, "spawns": 3,
 *         "predEarly": 1, "predLate": 1, "predUseless": 0,
 *         "promotionsCompleted": 2, "demotions": 0
 *       }, ...
 *     ]
 *   }
 *
 * Output directory: SSMT_BENCH_JSON_DIR if set, else the current
 * working directory. Setting SSMT_BENCH_JSON_DIR=/dev/null (or
 * "off") disables emission, which keeps bulk CI runs tidy.
 */

#ifndef SSMT_SIM_BENCH_JSON_HH
#define SSMT_SIM_BENCH_JSON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace ssmt
{
namespace sim
{

class BenchJson
{
  public:
    /**
     * @param bench name of the bench (e.g. "fig7_realistic")
     * @param jobs  worker threads the suite ran with
     * @param quick whether the --quick subset was used
     */
    BenchJson(std::string bench, unsigned jobs, bool quick);

    /** Record one simulation cell. */
    void addRun(const std::string &workload, const std::string &config,
                double host_seconds, const Stats &stats);

    /** Record a cell with timing but no simulator stats (profiler
     *  passes and other non-SsmtCore measurements). */
    void addTiming(const std::string &workload,
                   const std::string &config, double host_seconds);

    void setSuiteWallSeconds(double seconds)
    {
        suiteWallSeconds_ = seconds;
    }

    size_t runCount() const { return runs_.size(); }
    unsigned jobs() const { return jobs_; }

    /** The serialized document. */
    std::string str() const;

    /**
     * Write `BENCH_<bench>.json` into @p dir (empty = the
     * SSMT_BENCH_JSON_DIR / cwd rule above). @return the path
     * written, or an empty string when disabled or on I/O failure.
     */
    std::string writeFile(const std::string &dir = "") const;

    /** @p text escaped for a JSON string literal, as a new string
     *  (sim::appendJsonEscaped appends in place). */
    static std::string escape(const std::string &text);

  private:
    struct Run
    {
        std::string workload;
        std::string config;
        double hostSeconds;
        bool hasStats;
        Stats stats;
    };

    std::string bench_;
    unsigned jobs_;
    bool quick_;
    double suiteWallSeconds_ = 0.0;
    std::vector<Run> runs_;
};

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_BENCH_JSON_HH
