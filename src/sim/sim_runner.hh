/**
 * @file
 * Convenience drivers: run a program on a configured machine and
 * compare modes the way the paper's figures do.
 */

#ifndef SSMT_SIM_SIM_RUNNER_HH
#define SSMT_SIM_SIM_RUNNER_HH

#include <string>
#include <vector>

#include "cpu/trace.hh"
#include "isa/program.hh"
#include "sim/faultinject.hh"
#include "sim/machine_config.hh"
#include "sim/metrics.hh"
#include "sim/stats.hh"

namespace ssmt
{
namespace sim
{

/** Observability captures produced by a run when the corresponding
 *  MachineConfig knobs are set; empty (and cheap) otherwise. */
struct RunArtifacts
{
    /** Interval time-series (cfg.sampleInterval > 0). */
    MetricsSeries series;
    /** Bounded pipeline-event capture (cfg.traceCapacity > 0),
     *  oldest first; feed to cpu::chromeTraceJson() for Perfetto. */
    std::vector<cpu::TraceRecord> trace;
};

/**
 * Run @p prog to completion under @p config and return the stats:
 * the one way every tool, bench, example and test runs a program.
 * Every failure mode is a SimError the caller can record instead of
 * dying —
 *  - ConfigInvalid from MachineConfig::validate(),
 *  - InvariantViolation when the end-of-run StatsChecker or
 *    structural self-check trips (a simulator bug must never flow
 *    into a results table),
 *  - WatchdogExpired when @p cycle_budget > 0 and the run neither
 *    halted nor reached a configured stop within it. A run that
 *    does finish inside the budget computes exactly the unbudgeted
 *    run's results.
 *
 * @param label       run name used in error context strings
 * @param cycle_budget per-job watchdog; 0 = no watchdog
 * @param fault_stats  optional out-param: what the fault plan did
 * @param artifacts    optional out-param: time-series and trace;
 *                     reset at entry
 */
Stats runProgramChecked(const isa::Program &prog,
                        const MachineConfig &config,
                        const std::string &label = "",
                        uint64_t cycle_budget = 0,
                        FaultStats *fault_stats = nullptr,
                        RunArtifacts *artifacts = nullptr);

/** IPC speed-up of @p test over @p baseline, as plotted in the
 *  paper's Figures 6 and 7 (1.0 = no change). */
double speedup(const Stats &test, const Stats &baseline);

/** Geometric mean (the conventional average for speed-ups). */
double geomean(const std::vector<double> &values);

/** Arithmetic mean. */
double mean(const std::vector<double> &values);

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_SIM_RUNNER_HH
