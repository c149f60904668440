/**
 * @file
 * Tests for the paper's discussed-but-unevaluated extensions:
 * the perfect-prediction bound (introduction), the usefulness
 * throttle (Section 5.3), and compiler-provided difficult-path
 * hints (the compile-time variant of Section 4).
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "cpu/ssmt_core.hh"
#include "sim/path_profiler.hh"
#include "sim/sim_error.hh"
#include "sim/sim_runner.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

workloads::SyntheticSpec
kernelSpec()
{
    workloads::SyntheticSpec spec;
    spec.numSites = 4;
    spec.elemsPerSite = 64;
    spec.takenPercent = {0, 100, 80, 80};
    spec.iters = 120;
    return spec;
}

TEST(OracleAllTest, RemovesEveryMispredict)
{
    isa::Program prog = workloads::makeSynthetic(kernelSpec());
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::OracleAllBranches;
    sim::Stats stats = sim::runProgram(prog, cfg);
    EXPECT_EQ(stats.usedMispredicts, 0u);
    EXPECT_GT(stats.oracleOverrides, 0u);
}

TEST(OracleAllTest, UpperBoundsDifficultPathOracle)
{
    isa::Program prog = workloads::makeWorkload("go");
    sim::MachineConfig cfg;
    sim::Stats base = sim::runProgram(prog, cfg);
    cfg.mode = sim::Mode::OracleDifficultPath;
    sim::Stats path_oracle = sim::runProgram(prog, cfg);
    cfg.mode = sim::Mode::OracleAllBranches;
    sim::Stats all_oracle = sim::runProgram(prog, cfg);
    EXPECT_GE(sim::speedup(all_oracle, base),
              sim::speedup(path_oracle, base) - 1e-9);
    EXPECT_GT(sim::speedup(all_oracle, base), 1.2);
}

TEST(OracleAllTest, IntroClaimShapeOnMispredictBoundWork)
{
    // The paper's opening: a 16-wide machine at ~95% accuracy can
    // roughly double by eliminating remaining mispredictions. Our
    // branchy proxies show substantial headroom (the exact factor
    // depends on the workload mix).
    isa::Program prog = workloads::makeWorkload("twolf_2k");
    sim::MachineConfig cfg;
    sim::Stats base = sim::runProgram(prog, cfg);
    cfg.mode = sim::Mode::OracleAllBranches;
    sim::Stats oracle = sim::runProgram(prog, cfg);
    EXPECT_GT(sim::speedup(oracle, base), 1.5);
}

TEST(ThrottleTest, SuppressesUselessRoutines)
{
    // 50/50 sites deviate paths constantly, so spawned microthreads
    // rarely deliver. Left alone such paths never even promote (they
    // recur too rarely); compiler hints force them in, and the
    // throttle must then weed them back out.
    workloads::SyntheticSpec spec = kernelSpec();
    spec.takenPercent = {50, 50, 50, 50};
    isa::Program prog = workloads::makeSynthetic(spec);
    sim::PathProfiler profiler({10});
    profiler.profile(prog, 5'000'000);

    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cfg.staticDifficultHints = profiler.difficultPathIds(10, 0.20);
    cfg.throttleEnabled = true;
    cfg.throttleMinUseful = 0.10;
    cfg.throttleWindow = 16;
    sim::Stats stats = sim::runProgram(prog, cfg);
    ASSERT_GT(stats.spawns, 0u);
    EXPECT_GT(stats.throttleDemotions, 0u);
}

TEST(ThrottleTest, LeavesUsefulRoutinesAlone)
{
    isa::Program prog = workloads::makeSynthetic(kernelSpec());
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    sim::Stats plain = sim::runProgram(prog, cfg);
    cfg.throttleEnabled = true;
    cfg.throttleMinUseful = 0.005;      // only punish near-zero yield
    sim::Stats throttled = sim::runProgram(prog, cfg);
    // Throttling must not meaningfully reduce delivered predictions.
    EXPECT_GE(throttled.predEarly + throttled.predLate,
              (plain.predEarly + plain.predLate) / 2);
}

TEST(ThrottleTest, ReducesSpawnTrafficOnHopelessKernel)
{
    workloads::SyntheticSpec spec = kernelSpec();
    spec.takenPercent = {50, 50, 50, 50};
    isa::Program prog = workloads::makeSynthetic(spec);
    sim::PathProfiler profiler({10});
    profiler.profile(prog, 5'000'000);
    auto hints = profiler.difficultPathIds(10, 0.20);

    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cfg.staticDifficultHints = hints;
    sim::Stats plain = sim::runProgram(prog, cfg);
    cfg.throttleEnabled = true;
    cfg.throttleMinUseful = 0.10;
    cfg.throttleWindow = 16;
    sim::Stats throttled = sim::runProgram(prog, cfg);
    EXPECT_LT(throttled.spawns, plain.spawns);
}

TEST(ThrottleTest, OffByDefault)
{
    sim::MachineConfig cfg;
    EXPECT_FALSE(cfg.throttleEnabled);
    isa::Program prog = workloads::makeSynthetic(kernelSpec());
    cfg.mode = sim::Mode::Microthread;
    sim::Stats stats = sim::runProgram(prog, cfg);
    EXPECT_EQ(stats.throttleDemotions, 0u);
}

TEST(HintTest, ProfilerProducesRankedHints)
{
    isa::Program prog = workloads::makeSynthetic(kernelSpec());
    sim::PathProfiler profiler({10});
    profiler.profile(prog, 5'000'000);
    auto hints = profiler.difficultPathIds(10, 0.10);
    EXPECT_EQ(hints.size(), profiler.difficultPaths(10, 0.10));
    EXPECT_GT(hints.size(), 0u);
}

TEST(HintTest, HintsPromoteWithoutTrainingInterval)
{
    isa::Program prog = workloads::makeSynthetic(kernelSpec());
    sim::PathProfiler profiler({10});
    profiler.profile(prog, 5'000'000);

    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cfg.staticDifficultHints = profiler.difficultPathIds(10, 0.10);
    sim::Stats hinted = sim::runProgram(prog, cfg);
    EXPECT_GT(hinted.hintPromotions, 0u);

    sim::MachineConfig plain_cfg;
    plain_cfg.mode = sim::Mode::Microthread;
    sim::Stats dynamic = sim::runProgram(prog, plain_cfg);
    // Hints ramp the mechanism faster, so at least as many routines
    // get built over this short run.
    EXPECT_GE(hinted.promotionsCompleted,
              dynamic.promotionsCompleted);
}

TEST(HintTest, HintedRunStaysArchitecturallyIdentical)
{
    isa::Program prog = workloads::makeSynthetic(kernelSpec());
    sim::PathProfiler profiler({10});
    profiler.profile(prog, 5'000'000);

    sim::MachineConfig base_cfg;
    cpu::SsmtCore base(prog, base_cfg);
    base.run();

    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cfg.staticDifficultHints = profiler.difficultPathIds(10, 0.05);
    cpu::SsmtCore hinted(prog, cfg);
    hinted.run();

    for (int r = 0; r < isa::kNumRegs; r++) {
        ASSERT_EQ(
            hinted.archRegs().read(static_cast<isa::RegIndex>(r)),
            base.archRegs().read(static_cast<isa::RegIndex>(r)));
    }
}

TEST(HintTest, SaveLoadRoundTrip)
{
    std::vector<core::PathId> hints = {0x1234, 0xdeadbeefcafe,
                                       0xffffffffffffffffull, 0};
    std::string path = testing::TempDir() + "/ssmt_hints_test.txt";
    ASSERT_TRUE(sim::PathProfiler::saveHints(path, hints));
    auto loaded = sim::PathProfiler::loadHints(path);
    EXPECT_EQ(loaded, hints);
    std::remove(path.c_str());
}

/** The ErrorCode loadHints(@p path) throws (None if it returns). */
sim::ErrorCode
loadHintsError(const std::string &path, std::string *what = nullptr)
{
    try {
        sim::PathProfiler::loadHints(path);
    } catch (const sim::SimError &err) {
        if (what)
            *what = err.what();
        return err.code();
    }
    return sim::ErrorCode::None;
}

TEST(HintTest, LoadMissingFileThrowsIoError)
{
    // Loading nothing would silently run the unhinted experiment.
    EXPECT_EQ(loadHintsError("/nonexistent/nowhere.hints"),
              sim::ErrorCode::IoError);
}

TEST(HintTest, LoadMalformedLineThrowsParseErrorNamingIt)
{
    std::string path = testing::TempDir() + "/ssmt_hints_bad.txt";
    // Not hex, two ids, a prefix, leading blank, 17 digits.
    for (const char *bad :
         {"xyz", "12 34", "0x1234", " 1234", "10000000000000000"}) {
        SCOPED_TRACE(bad);
        std::FILE *file = std::fopen(path.c_str(), "w");
        ASSERT_NE(file, nullptr);
        std::fprintf(file, "# header\n00000000000000ab\n%s\n", bad);
        std::fclose(file);
        std::string what;
        EXPECT_EQ(loadHintsError(path, &what),
                  sim::ErrorCode::ParseError);
        EXPECT_NE(what.find(path + ":3"), std::string::npos) << what;
    }
    std::remove(path.c_str());
}

TEST(HintTest, SaveToUnwritablePathFails)
{
    EXPECT_FALSE(sim::PathProfiler::saveHints(
        "/nonexistent_dir/x.hints", {}));
}

TEST(HintTest, BogusHintsAreHarmless)
{
    isa::Program prog = workloads::makeSynthetic(kernelSpec());
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cfg.staticDifficultHints = {0xdead, 0xbeef, 0x1234};
    sim::Stats stats = sim::runProgram(prog, cfg);
    // Nonexistent paths never retire a matching branch, so the
    // hints simply never fire.
    EXPECT_EQ(stats.hintPromotions, 0u);
    EXPECT_GT(stats.ipc(), 0.0);
}

} // namespace
