/**
 * @file
 * Tests for sim::StatsChecker: every cross-counter relation must
 * fire on a stats vector corrupted to violate exactly it, and none
 * may fire on any clean run of the 20-workload suite.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "sim/batch_runner.hh"
#include "sim/golden.hh"
#include "sim/invariants.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

/**
 * A realistic, invariant-clean stats vector to corrupt: one mcf_2k
 * run under the golden config. mcf exercises every counter group the
 * corruptions below need nonzero (spawns, early/late predictions,
 * builds, demotions, cache traffic).
 */
const sim::Stats &
cleanStats()
{
    static const sim::Stats stats = [] {
        sim::BatchRunner runner(1);
        std::vector<sim::BatchJob> batch{
            {"mcf_2k", workloads::makeWorkload("mcf_2k"),
             sim::goldenMachineConfig()}};
        return runner.run(batch)[0].stats;
    }();
    return stats;
}

std::vector<std::string>
flaggedRelations(const sim::Stats &stats)
{
    std::vector<std::string> names;
    for (const sim::InvariantViolation &v :
         sim::StatsChecker::check(stats))
        names.push_back(v.relation);
    std::sort(names.begin(), names.end());
    return names;
}

struct Corruption
{
    const char *label;
    std::function<void(sim::Stats &)> mutate;
    std::vector<std::string> expected;  ///< exact set of relations
};

TEST(StatsCheckerTest, CleanRunHasNoViolations)
{
    EXPECT_TRUE(flaggedRelations(cleanStats()).empty());
}

TEST(StatsCheckerTest, EachCorruptionFlagsExactlyItsRelation)
{
    const sim::Stats &base = cleanStats();
    // Preconditions the corruptions rely on: the counters being
    // pushed past a bound must be nonzero in the clean vector, or
    // the "exactly this relation" claim degenerates.
    ASSERT_GT(base.spawns, 0u);
    ASSERT_GT(base.microthreadsCompleted, 0u);
    ASSERT_GT(base.predEarly, 0u);
    ASSERT_GT(base.promotionsCompleted, 0u);
    ASSERT_GT(base.build.built, 0u);
    ASSERT_GT(base.condHwMispredicts + base.indirectHwMispredicts +
                  base.microPredWrong,
              0u);
    ASSERT_LT(base.condHwMispredicts + base.indirectHwMispredicts +
                  base.microPredWrong,
              base.condBranches + base.indirectBranches);

    const std::vector<Corruption> corruptions = {
        {"fetch bubbles exceed cycles",
         [](sim::Stats &s) { s.fetchBubbleCycles = s.cycles + 1; },
         {"fetch-bubbles-le-cycles"}},
        {"cond mispredicts exceed cond branches",
         [](sim::Stats &s) {
             s.condHwMispredicts = s.condBranches + 1;
         },
         {"cond-mispredicts-le-branches"}},
        {"indirect mispredicts exceed indirect branches",
         [](sim::Stats &s) {
             s.indirectHwMispredicts = s.indirectBranches + 1;
         },
         {"indirect-mispredicts-le-branches"}},
        {"used mispredicts exceed their sources",
         [](sim::Stats &s) {
             s.usedMispredicts = s.condHwMispredicts +
                                 s.indirectHwMispredicts +
                                 s.microPredWrong + 1;
         },
         {"used-mispredicts-source"}},
        {"used mispredicts exceed terminating branches",
         [](sim::Stats &s) {
             s.usedMispredicts =
                 s.condBranches + s.indirectBranches + 1;
         },
         // Exceeding every terminating branch necessarily also
         // exceeds the (tighter) source bound.
         {"used-mispredicts-le-term-branches",
          "used-mispredicts-source"}},
        {"oracle overrides exceed terminating branches",
         [](sim::Stats &s) {
             s.oracleOverrides =
                 s.condBranches + s.indirectBranches + 1;
         },
         {"oracle-overrides-le-term-branches"}},
        {"spawn outcomes do not sum to attempts",
         [](sim::Stats &s) { s.spawnAttempts += 1; },
         {"spawn-conservation"}},
        {"more spawn outcomes than spawns",
         [](sim::Stats &s) { s.abortsPostSpawn = s.spawns + 1; },
         {"spawn-outcomes-le-spawns"}},
        {"completed microthreads without executed ops",
         [](sim::Stats &s) {
             s.microOpsExecuted = s.microthreadsCompleted - 1;
         },
         {"completed-threads-le-microops"}},
        {"spawns without any completed promotion",
         [](sim::Stats &s) {
             s.promotionsCompleted = 0;
             s.demotions = 0;            // keep demotion bounds quiet
             s.throttleDemotions = 0;
         },
         {"spawns-require-promotion"}},
        {"more completions than promotion requests",
         [](sim::Stats &s) {
             s.promotionsCompleted =
                 s.promotionsRequested + s.rebuildRequests + 1;
         },
         {"promotions-completed-le-requests"}},
        {"build requests not accounted for",
         [](sim::Stats &s) { s.build.requests += 1; },
         {"builds-accounted"}},
        {"buildsFailed disagrees with failure breakdown",
         [](sim::Stats &s) { s.buildsFailed += 1; },
         {"build-failures-accounted"}},
        {"built routines with no ops",
         [](sim::Stats &s) {
             s.build.totalOps = s.build.built - 1;
         },
         {"built-routines-nonempty"}},
        {"more pruned routines than built",
         [](sim::Stats &s) {
             s.build.prunedRoutines = s.build.built + 1;
         },
         {"pruned-routines-le-built"}},
        {"more demotions than completed promotions",
         [](sim::Stats &s) {
             s.demotions = s.promotionsCompleted + 1;
         },
         {"demotions-le-promotions-completed"}},
        {"more throttle demotions than demotions",
         [](sim::Stats &s) {
             s.throttleDemotions = s.demotions + 1;
         },
         {"throttle-demotions-le-demotions"}},
        {"graded predictions disagree with early+late",
         [](sim::Stats &s) { s.microPredCorrect += 1; },
         {"pred-timeliness-classified"}},
        {"early predictions disagree with pcache hits",
         [](sim::Stats &s) { s.pcacheLookupHits += 1; },
         {"early-preds-eq-pcache-hits"}},
        {"more early predictions than pcache writes",
         [](sim::Stats &s) { s.pcacheWrites = s.predEarly - 1; },
         {"early-preds-le-pcache-writes"}},
        {"more recoveries than late predictions",
         [](sim::Stats &s) {
             s.earlyRecoveries = 0;
             s.bogusRecoveries = s.predLate + 1;
         },
         {"recoveries-le-late-preds"}},
        {"allocation outcomes exceed pathcache updates",
         [](sim::Stats &s) {
             s.pathCacheAllocations = s.pathCacheUpdates + 1;
             s.pathCacheAllocationsSkipped = 0;
         },
         {"pathcache-allocation-split"}},
        {"pathcache updates exceed terminating branches",
         [](sim::Stats &s) {
             s.pathCacheUpdates =
                 s.condBranches + s.indirectBranches + 1;
         },
         {"pathcache-updates-le-term-branches"}},
        {"l1d misses exceed accesses",
         [](sim::Stats &s) { s.l1dMisses = s.l1dAccesses + 1; },
         {"l1d-misses-le-accesses"}},
        {"l2 misses exceed accesses",
         [](sim::Stats &s) { s.l2Misses = s.l2Accesses + 1; },
         {"l2-misses-le-accesses"}},
    };

    for (const Corruption &c : corruptions) {
        SCOPED_TRACE(c.label);
        sim::Stats corrupt = base;
        c.mutate(corrupt);
        std::vector<std::string> expected = c.expected;
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(flaggedRelations(corrupt), expected);
    }
}

TEST(StatsCheckerTest, DescribeNamesTheRelation)
{
    sim::Stats corrupt = cleanStats();
    corrupt.l1dMisses = corrupt.l1dAccesses + 1;
    auto violations = sim::StatsChecker::check(corrupt);
    ASSERT_EQ(violations.size(), 1u);
    std::string text = sim::StatsChecker::describe(violations);
    EXPECT_NE(text.find("l1d-misses-le-accesses"), std::string::npos);
    EXPECT_NE(text.find("l1dMisses <= l1dAccesses"),
              std::string::npos);
}

TEST(StatsCheckerTest, NoFalsePositivesAcrossSuiteAndModes)
{
    // Every workload, in the golden microthread config plus the
    // three comparison modes: zero violations anywhere. (BatchRunner
    // itself enforces per job — this spells the check out and keeps
    // the coverage even if that enforcement ever moves.)
    std::vector<sim::MachineConfig> configs;
    for (sim::Mode mode :
         {sim::Mode::Microthread, sim::Mode::Baseline,
          sim::Mode::OracleDifficultPath,
          sim::Mode::OracleAllBranches}) {
        sim::MachineConfig cfg = sim::goldenMachineConfig();
        cfg.mode = mode;
        configs.push_back(cfg);
    }
    std::vector<sim::BatchJob> batch;
    for (const auto &info : workloads::allWorkloads())
        for (const auto &cfg : configs)
            batch.push_back({info.name, info.make({}), cfg});

    sim::BatchRunner runner;
    std::vector<sim::BatchResult> results = runner.run(batch);
    for (size_t i = 0; i < batch.size(); i++) {
        auto flagged = flaggedRelations(results[i].stats);
        EXPECT_TRUE(flagged.empty())
            << batch[i].name << ": " << flagged.front();
    }
}

} // namespace
