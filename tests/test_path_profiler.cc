/**
 * @file
 * Tests for the offline path profiler backing Tables 1 and 2.
 */

#include <gtest/gtest.h>

#include "sim/path_profiler.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;
using sim::PathProfiler;

workloads::SyntheticSpec
spec()
{
    workloads::SyntheticSpec s;
    s.numSites = 4;
    s.elemsPerSite = 32;
    s.takenPercent = {0, 100, 50, 50};
    s.iters = 200;
    return s;
}

TEST(PathProfilerTest, CountsBasics)
{
    PathProfiler profiler({4, 10, 16});
    profiler.profile(workloads::makeSynthetic(spec()), 10'000'000);
    EXPECT_GT(profiler.dynamicInsts(), 100'000u);
    EXPECT_GT(profiler.branchExecs(), 10'000u);
    EXPECT_GT(profiler.mispredicts(), 100u);
    EXPECT_GT(profiler.uniqueBranches(), 2u);
}

TEST(PathProfilerTest, UniquePathsGrowWithN)
{
    // Table 1's structural claim: larger n differentiates more
    // paths.
    PathProfiler profiler({4, 10, 16});
    profiler.profile(workloads::makeSynthetic(spec()), 10'000'000);
    EXPECT_LE(profiler.uniquePaths(4), profiler.uniquePaths(10));
    EXPECT_LE(profiler.uniquePaths(10), profiler.uniquePaths(16));
    EXPECT_GT(profiler.uniquePaths(4), 0u);
}

TEST(PathProfilerTest, ScopeGrowsWithN)
{
    PathProfiler profiler({4, 10, 16});
    profiler.profile(workloads::makeSynthetic(spec()), 10'000'000);
    EXPECT_LT(profiler.avgScope(4), profiler.avgScope(10));
    EXPECT_LT(profiler.avgScope(10), profiler.avgScope(16));
    // Scope of an n-block path is at least n instructions.
    EXPECT_GE(profiler.avgScope(4), 4.0);
}

TEST(PathProfilerTest, DifficultPathsDecreaseWithThreshold)
{
    PathProfiler profiler({10});
    profiler.profile(workloads::makeSynthetic(spec()), 10'000'000);
    uint64_t t05 = profiler.difficultPaths(10, 0.05);
    uint64_t t10 = profiler.difficultPaths(10, 0.10);
    uint64_t t15 = profiler.difficultPaths(10, 0.15);
    EXPECT_GE(t05, t10);
    EXPECT_GE(t10, t15);
    EXPECT_GT(t15, 0u);
}

TEST(PathProfilerTest, CoveragesAreFractions)
{
    PathProfiler profiler({4, 10});
    profiler.profile(workloads::makeSynthetic(spec()), 10'000'000);
    for (double t : {0.05, 0.10, 0.15}) {
        EXPECT_GE(profiler.branchMisCoverage(t), 0.0);
        EXPECT_LE(profiler.branchMisCoverage(t), 1.0);
        EXPECT_GE(profiler.pathExeCoverage(10, t), 0.0);
        EXPECT_LE(profiler.pathExeCoverage(10, t), 1.0);
    }
}

TEST(PathProfilerTest, PathsBeatBranchesOnMisprediction)
{
    // Table 2's central claim on a kernel engineered for it: the
    // shared helper branch mispredicts only along the paths through
    // the 50%-biased sites, so difficult *paths* isolate those
    // mispredictions with less execution coverage than the
    // difficult-branch set. A larger region keeps the big history
    // predictors from simply memorizing the data.
    workloads::SyntheticSpec s;
    s.numSites = 4;
    s.elemsPerSite = 256;
    s.takenPercent = {0, 100, 50, 50};
    s.iters = 80;
    PathProfiler profiler({10});
    profiler.profile(workloads::makeSynthetic(s), 10'000'000);
    double t = 0.10;
    double branch_exe = profiler.branchExeCoverage(t);
    double path_exe = profiler.pathExeCoverage(10, t);
    double branch_mis = profiler.branchMisCoverage(t);
    double path_mis = profiler.pathMisCoverage(10, t);
    // The helper branch aggregates to ~25% misprediction: difficult.
    EXPECT_GT(branch_mis, 0.5);
    EXPECT_GT(branch_exe, 0.0);
    // Difficult paths still capture a large share of mispredictions
    // while excluding the easy-site traversals.
    EXPECT_GT(path_mis, 0.3);
    EXPECT_LT(path_exe, branch_exe);
}

TEST(PathProfilerTest, MispredictsBelowExecutions)
{
    PathProfiler profiler({4});
    profiler.profile(workloads::makeSynthetic(spec()), 10'000'000);
    EXPECT_LT(profiler.mispredicts(), profiler.branchExecs());
}

TEST(PathProfilerDeathTest, UnconfiguredNIsFatal)
{
    PathProfiler profiler({4});
    profiler.profile(workloads::makeSynthetic(spec()), 100'000);
    EXPECT_DEATH((void)profiler.uniquePaths(10), "not configured");
}

TEST(PathProfilerTest, HonorsMaxInsts)
{
    PathProfiler profiler({4});
    profiler.profile(workloads::makeSynthetic(spec()), 5000);
    EXPECT_LE(profiler.dynamicInsts(), 5000u);
}

} // namespace
