/**
 * @file
 * Perf-identity suite for event-driven quiescent-cycle skipping
 * (SsmtCore::fastForward): for every workload under every mechanism
 * mode, a run that skips quiescent cycles must be *byte-identical*
 * to a tick-by-tick run on every observable artifact —
 *
 *   - the golden stats document (ssmt-golden-v1),
 *   - the interval time-series (ssmt-series-v1), whose due points
 *     the skipper must land on exactly,
 *   - the machine at a fixed mid-run stop cycle: the clock, every
 *     counter, the occupancy gauges and the architectural registers.
 *
 * This is the contract that lets the cycle loop get faster without
 * the goldens ever being re-blessed; the suite carries the
 * `perf-identity` ctest label so CI can name it (tier-1 runs it via
 * discovery, the sanitizer preset runs the microthread sweep).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/ssmt_core.hh"
#include "isa/executor.hh"
#include "sim/golden.hh"
#include "sim/metrics.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

/** Mid-run stop cycle: late enough that microthreads are in flight
 *  under the mechanism modes, early enough that every workload is
 *  still running. Runs that finish sooner simply skip the stop
 *  comparison (consistently in both runs). */
constexpr uint64_t kSnapCycle = 1500;

/** What the machine shows at kSnapCycle. */
struct StopState
{
    bool reached = false;   ///< false when the run ended earlier
    uint64_t cycle = 0;
    std::vector<uint64_t> counters;
    std::vector<uint64_t> gauges;
    isa::RegFile regs;
};

StopState
stopState(const cpu::SsmtCore &core)
{
    const sim::OccupancyGauges g = core.currentGauges();
    return {true, core.cycle(), sim::statsValues(core.stats()),
            {g.prbEntries, g.liveMicrocontexts, g.pcacheValidEntries,
             g.microRamRoutines, g.windowFill},
            core.archRegs()};
}

std::string
goldenText(const std::string &workload, const sim::Stats &stats)
{
    return sim::goldenJson(
        sim::GoldenRun{workload, sim::kGoldenConfigName, stats});
}

struct RunCapture
{
    std::string golden;
    std::string series;
    StopState atStop;
};

/** Drive @p core with the external tick loop, optionally calling
 *  fastForward between ticks, capturing the machine at kSnapCycle. */
RunCapture
driveRun(cpu::SsmtCore &core, const sim::MachineConfig &cfg,
         const std::string &workload, bool skip_quiescent)
{
    RunCapture cap;
    while (!core.done() && core.cycle() < cfg.maxCycles &&
           core.retiredInsts() < cfg.maxInsts) {
        if (skip_quiescent) {
            // Never skip past the stop cycle: the capture below must
            // observe it exactly.
            bool armed = core.cycle() < kSnapCycle;
            core.fastForward(armed ? kSnapCycle : cfg.maxCycles);
        }
        core.tick();
        if (core.cycle() == kSnapCycle)
            cap.atStop = stopState(core);
    }
    cap.golden = goldenText(workload, core.finish());
    cap.series = sim::seriesDocumentJson(core.series(), "", "");
    return cap;
}

void
expectSkipIdentity(sim::Mode mode)
{
    for (const std::string &name : workloads::workloadNames()) {
        SCOPED_TRACE(name);
        isa::Program prog = workloads::makeWorkload(name);
        sim::MachineConfig cfg = sim::goldenMachineConfig();
        cfg.mode = mode;
        // Sampling on, at an interval that does not divide
        // kSnapCycle: skip targets must respect due points that are
        // unrelated to the stop cycle.
        cfg.sampleInterval = 700;

        cpu::SsmtCore plain(prog, cfg);
        RunCapture tick_by_tick = driveRun(plain, cfg, name, false);

        cpu::SsmtCore skipping(prog, cfg);
        RunCapture skipped = driveRun(skipping, cfg, name, true);

        // Byte-identity of every observable artifact.
        EXPECT_EQ(skipped.golden, tick_by_tick.golden);
        EXPECT_EQ(skipped.series, tick_by_tick.series);

        // The same machine at the stop cycle.
        const StopState &a = skipped.atStop;
        const StopState &b = tick_by_tick.atStop;
        ASSERT_EQ(a.reached, b.reached);
        EXPECT_EQ(a.cycle, b.cycle);
        EXPECT_EQ(a.counters, b.counters);
        EXPECT_EQ(a.gauges, b.gauges);
        EXPECT_TRUE(a.regs == b.regs);
    }
}

TEST(QuiescentSkip, BaselineMode)
{
    expectSkipIdentity(sim::Mode::Baseline);
}

TEST(QuiescentSkip, OracleDifficultPathMode)
{
    expectSkipIdentity(sim::Mode::OracleDifficultPath);
}

TEST(QuiescentSkip, MicrothreadMode)
{
    expectSkipIdentity(sim::Mode::Microthread);
}

TEST(QuiescentSkip, MicrothreadNoPredictionsMode)
{
    expectSkipIdentity(sim::Mode::MicrothreadNoPredictions);
}

TEST(QuiescentSkip, RunEntryPointSkipsAndMatchesExternalLoop)
{
    // SsmtCore::run() fast-forwards internally; the external
    // tick-by-tick loop must land on the same stats document. This
    // is the equivalence every external tick loop rests on.
    isa::Program prog = workloads::makeWorkload("mcf_2k");
    sim::MachineConfig cfg = sim::goldenMachineConfig();
    cfg.sampleInterval = 700;

    cpu::SsmtCore internal(prog, cfg);
    internal.run();
    std::string internal_golden =
        goldenText("mcf_2k", internal.stats());

    cpu::SsmtCore external(prog, cfg);
    RunCapture cap = driveRun(external, cfg, "mcf_2k", false);
    EXPECT_EQ(internal_golden, cap.golden);
    EXPECT_EQ(sim::seriesDocumentJson(internal.series(), "", ""),
              cap.series);
}

} // namespace
