/**
 * @file
 * Differential fuzzing: for a sweep of random structured programs,
 * the timing core — in every machine mode, with microthreads
 * spawning, aborting and speculating — must retire exactly the
 * instruction stream the functional executor defines and end with
 * identical architectural state. Any timing-model bug that leaks
 * into architecture (stale microthread state, bad spawn snapshots,
 * wrong-path contamination) fails here.
 */

#include <gtest/gtest.h>

#include "cpu/ssmt_core.hh"
#include "isa/executor.hh"
#include "sim/sim_runner.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

class FuzzCosim : public testing::TestWithParam<uint64_t>
{
};

TEST_P(FuzzCosim, AllModesMatchFunctionalExecution)
{
    isa::Program prog = workloads::makeRandomProgram(GetParam());

    isa::RegFile ref_regs;
    isa::MemoryImage ref_mem;
    prog.loadData(ref_mem);
    uint64_t ref_count = isa::run(prog, ref_regs, ref_mem,
                                  50'000'000);
    ASSERT_LT(ref_count, 50'000'000u) << "generator made a hang";

    for (sim::Mode mode :
         {sim::Mode::Baseline, sim::Mode::OracleDifficultPath,
          sim::Mode::Microthread,
          sim::Mode::MicrothreadNoPredictions,
          sim::Mode::OracleAllBranches}) {
        sim::MachineConfig cfg;
        cfg.mode = mode;
        cfg.builder.pruningEnabled =
            mode == sim::Mode::Microthread;
        // Stress the mechanism harder than the defaults do.
        cfg.trainingInterval = 8;
        cfg.pathN = 6;
        cpu::SsmtCore core(prog, cfg);
        core.run();
        ASSERT_EQ(core.stats().retiredInsts, ref_count)
            << sim::modeName(mode) << " seed " << GetParam();
        for (int r = 0; r < isa::kNumRegs; r++) {
            ASSERT_EQ(
                core.archRegs().read(static_cast<isa::RegIndex>(r)),
                ref_regs.read(static_cast<isa::RegIndex>(r)))
                << sim::modeName(mode) << " seed " << GetParam()
                << " r" << r;
        }
    }
}

TEST_P(FuzzCosim, TimingInvariantsHold)
{
    isa::Program prog = workloads::makeRandomProgram(GetParam());
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cfg.trainingInterval = 8;
    cfg.pathN = 6;
    sim::Stats stats = sim::runProgramChecked(prog, cfg);
    // Cycles can never undercut the dataflow/width lower bound.
    EXPECT_GE(stats.cycles,
              stats.retiredInsts / static_cast<uint64_t>(16));
    // Spawn accounting must balance.
    EXPECT_EQ(stats.spawnAttempts, stats.spawnAbortPrefix +
                                       stats.spawnNoContext +
                                       stats.spawns);
    // Prediction classes never exceed Store_PCache completions.
    EXPECT_LE(stats.predEarly + stats.predLate + stats.predUseless +
                  stats.predNeverReached,
              stats.microOpsExecuted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCosim,
                         testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                         55, 89, 144, 233, 377, 610,
                                         987));

TEST(FuzzGeneratorTest, DeterministicPerSeed)
{
    isa::Program a = workloads::makeRandomProgram(42);
    isa::Program b = workloads::makeRandomProgram(42);
    ASSERT_EQ(a.size(), b.size());
    for (uint64_t pc = 0; pc < a.size(); pc++)
        ASSERT_TRUE(a.inst(pc) == b.inst(pc)) << pc;
}

TEST(FuzzGeneratorTest, SeedsDiffer)
{
    isa::Program a = workloads::makeRandomProgram(1);
    isa::Program b = workloads::makeRandomProgram(2);
    bool differs = a.size() != b.size();
    for (uint64_t pc = 0; !differs && pc < a.size(); pc++)
        differs = !(a.inst(pc) == b.inst(pc));
    EXPECT_TRUE(differs);
}

TEST(FuzzGeneratorTest, FuelBoundsExecution)
{
    isa::Program prog = workloads::makeRandomProgram(7, 24, 500);
    isa::RegFile regs;
    isa::MemoryImage mem;
    prog.loadData(mem);
    uint64_t count = isa::run(prog, regs, mem, 10'000'000);
    // ~500 blocks of bounded size, plus prologue.
    EXPECT_LT(count, 500u * 40 + 100);
}

} // namespace
