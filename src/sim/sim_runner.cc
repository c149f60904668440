#include "sim/sim_runner.hh"

#include <algorithm>
#include <cmath>

#include "cpu/ssmt_core.hh"
#include "sim/invariants.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace ssmt
{
namespace sim
{

Stats
runProgram(const isa::Program &prog, const MachineConfig &config)
{
    config.validateOrThrow();
    cpu::SsmtCore core(prog, config);
    Stats stats = core.run();
    // End-of-run self-check: a violated counter relation or occupancy
    // bound is a simulator bug and must never flow into a results
    // table (or a golden snapshot).
    std::vector<InvariantViolation> violations =
        core.checkStructuralInvariants();
    if (!violations.empty()) {
        SSMT_PANIC("structural invariant violation at end of run:\n" +
                   StatsChecker::describe(violations));
    }
    StatsChecker::enforce(stats, modeName(config.mode));
    return stats;
}

Stats
runProgramChecked(const isa::Program &prog, const MachineConfig &config,
                  const std::string &label, uint64_t cycle_budget,
                  FaultStats *fault_stats, RunArtifacts *artifacts)
{
    config.validateOrThrow();

    MachineConfig cfg = config;
    if (cycle_budget > 0)
        cfg.maxCycles = std::min(cfg.maxCycles, cycle_budget);

    if (artifacts)
        *artifacts = RunArtifacts{};

    cpu::SsmtCore core(prog, cfg);
    Stats stats = core.run();
    if (fault_stats)
        *fault_stats = core.faultStats();
    if (artifacts) {
        artifacts->series = core.series();
        artifacts->trace = core.trace().records();
    }

    if (cycle_budget > 0 && !core.done() &&
        stats.cycles >= cfg.maxCycles &&
        stats.retiredInsts < cfg.maxInsts) {
        throw SimError(ErrorCode::WatchdogExpired, "sim_runner",
                       "run '" + label + "' did not complete within " +
                           std::to_string(cfg.maxCycles) +
                           " cycles (" +
                           std::to_string(stats.retiredInsts) +
                           " insts retired); likely hung or "
                           "underprovisioned cycle budget");
    }

    std::vector<InvariantViolation> violations =
        core.checkStructuralInvariants();
    for (const InvariantViolation &v : StatsChecker::check(stats))
        violations.push_back(v);
    if (!violations.empty()) {
        throw SimError(ErrorCode::InvariantViolation, "sim_runner",
                       "run '" + label + "' ended inconsistent:\n" +
                           StatsChecker::describe(violations));
    }
    return stats;
}

double
speedup(const Stats &test, const Stats &baseline)
{
    SSMT_ASSERT(baseline.ipc() > 0.0, "baseline run made no progress");
    return test.ipc() / baseline.ipc();
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

} // namespace sim
} // namespace ssmt
