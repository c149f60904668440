/**
 * @file
 * Tests for the BatchRunner parallel simulation engine: parallel
 * batches must be bit-identical to serial execution, `--jobs 1` must
 * degenerate to a plain serial loop, forEach must run every index
 * exactly once and join all its threads before returning, and a
 * throwing job must surface its exception on the calling thread
 * without deadlocking.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/batch_runner.hh"
#include "sim/jobs.hh"
#include "sim/logging.hh"
#include "sim/sim_runner.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

/** Every simulated counter must match; host timing may differ. */
void
expectStatsEqual(const sim::Stats &a, const sim::Stats &b,
                 const std::string &label)
{
    SCOPED_TRACE(label);
#define SSMT_EQ_FIELD(f) EXPECT_EQ(a.f, b.f) << #f
    SSMT_EQ_FIELD(cycles);
    SSMT_EQ_FIELD(retiredInsts);
    SSMT_EQ_FIELD(fetchBubbleCycles);
    SSMT_EQ_FIELD(condBranches);
    SSMT_EQ_FIELD(condHwMispredicts);
    SSMT_EQ_FIELD(indirectBranches);
    SSMT_EQ_FIELD(indirectHwMispredicts);
    SSMT_EQ_FIELD(usedMispredicts);
    SSMT_EQ_FIELD(promotionsRequested);
    SSMT_EQ_FIELD(promotionsCompleted);
    SSMT_EQ_FIELD(demotions);
    SSMT_EQ_FIELD(buildsFailed);
    SSMT_EQ_FIELD(rebuildRequests);
    SSMT_EQ_FIELD(oracleOverrides);
    SSMT_EQ_FIELD(throttleDemotions);
    SSMT_EQ_FIELD(hintPromotions);
    SSMT_EQ_FIELD(spawnAttempts);
    SSMT_EQ_FIELD(spawnAbortPrefix);
    SSMT_EQ_FIELD(spawnNoContext);
    SSMT_EQ_FIELD(spawns);
    SSMT_EQ_FIELD(abortsPostSpawn);
    SSMT_EQ_FIELD(microthreadsCompleted);
    SSMT_EQ_FIELD(microOpsExecuted);
    SSMT_EQ_FIELD(predEarly);
    SSMT_EQ_FIELD(predLate);
    SSMT_EQ_FIELD(predUseless);
    SSMT_EQ_FIELD(predNeverReached);
    SSMT_EQ_FIELD(microPredCorrect);
    SSMT_EQ_FIELD(microPredWrong);
    SSMT_EQ_FIELD(earlyRecoveries);
    SSMT_EQ_FIELD(bogusRecoveries);
    SSMT_EQ_FIELD(pathCacheUpdates);
    SSMT_EQ_FIELD(pathCacheAllocations);
    SSMT_EQ_FIELD(pathCacheAllocationsSkipped);
    SSMT_EQ_FIELD(pcacheWrites);
    SSMT_EQ_FIELD(pcacheLookupHits);
    SSMT_EQ_FIELD(l1dMisses);
    SSMT_EQ_FIELD(l1dAccesses);
    SSMT_EQ_FIELD(l2Misses);
    SSMT_EQ_FIELD(l2Accesses);
    SSMT_EQ_FIELD(build.requests);
    SSMT_EQ_FIELD(build.built);
    SSMT_EQ_FIELD(build.failScopeNotInPrb);
    SSMT_EQ_FIELD(build.failPathMismatch);
    SSMT_EQ_FIELD(build.stopsMemDep);
    SSMT_EQ_FIELD(build.stopsMcbFull);
    SSMT_EQ_FIELD(build.totalOps);
    SSMT_EQ_FIELD(build.totalChain);
    SSMT_EQ_FIELD(build.totalLiveIns);
    SSMT_EQ_FIELD(build.prunedRoutines);
    SSMT_EQ_FIELD(build.prunedSubtrees);
#undef SSMT_EQ_FIELD
    EXPECT_EQ(a.report(), b.report());
}

/** 12 mixed jobs: 6 workloads under baseline and microthread mode. */
std::vector<sim::BatchJob>
mixedBatch()
{
    const auto &all = workloads::allWorkloads();
    std::vector<sim::BatchJob> batch;
    sim::MachineConfig baseline;
    sim::MachineConfig micro;
    micro.mode = sim::Mode::Microthread;
    for (size_t i = 0; i < 6 && i < all.size(); i++) {
        batch.push_back(
            {all[i].name + "/base", all[i].make({}), baseline});
        batch.push_back(
            {all[i].name + "/micro", all[i].make({}), micro});
    }
    return batch;
}

TEST(BatchRunnerTest, ParallelMatchesSerialBitForBit)
{
    std::vector<sim::BatchJob> batch = mixedBatch();
    ASSERT_EQ(batch.size(), 12u);

    std::vector<sim::BatchResult> serial =
        sim::BatchRunner(1).run(batch);
    std::vector<sim::BatchResult> parallel =
        sim::BatchRunner(8).run(batch);

    ASSERT_EQ(serial.size(), batch.size());
    ASSERT_EQ(parallel.size(), batch.size());
    for (size_t i = 0; i < batch.size(); i++)
        expectStatsEqual(serial[i].stats, parallel[i].stats,
                         batch[i].name);
}

TEST(BatchRunnerTest, JobsOneRunsSeriallyOnCallingThread)
{
    sim::BatchRunner runner(1);
    EXPECT_EQ(runner.jobs(), 1u);

    // Serial degenerate case: every index runs in order, on this
    // very thread.
    const std::thread::id self = std::this_thread::get_id();
    std::vector<size_t> order;
    runner.forEach(16, [&](size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 16u);
    for (size_t i = 0; i < order.size(); i++)
        EXPECT_EQ(order[i], i);
}

TEST(BatchRunnerTest, ResolveJobsPriority)
{
    // Explicit request wins over everything.
    EXPECT_EQ(sim::resolveJobs(3), 3u);

    // SSMT_JOBS is the fallback for an unspecified count.
    ::setenv("SSMT_JOBS", "5", 1);
    EXPECT_EQ(sim::resolveJobs(0), 5u);
    EXPECT_EQ(sim::resolveJobs(2), 2u);
    EXPECT_EQ(sim::BatchRunner(0).jobs(), 5u);

    // Nonsense values fall through to the host core count (>= 1),
    // under --jobs's rules: a trailing letter, a value past unsigned
    // (which used to wrap, to 1 or even 0), a blank or a zero count
    // as unset, with one warning for the process.
    const uint64_t warned_before = ssmt::detail::warnEmittedTotal();
    for (const char *bad : {"bogus", "4x", "4294967297", "4294967296",
                            " 2", "0", "-1", "+2", ""}) {
        ::setenv("SSMT_JOBS", bad, 1);
        EXPECT_EQ(sim::resolveJobs(0), sim::hostThreads())
            << "SSMT_JOBS='" << bad << "'";
        EXPECT_EQ(sim::BatchRunner(0).jobs(), sim::hostThreads())
            << "SSMT_JOBS='" << bad << "'";
    }
    EXPECT_LE(ssmt::detail::warnEmittedTotal() - warned_before, 1u);
    ::setenv("SSMT_JOBS", "auto", 1);
    EXPECT_EQ(sim::resolveJobs(0), sim::hostThreads());
    ::unsetenv("SSMT_JOBS");
    EXPECT_EQ(sim::resolveJobs(0), sim::hostThreads());
    EXPECT_GE(sim::resolveJobs(0), 1u);
}

TEST(BatchRunnerTest, ForEachRunsEveryIndexExactlyOnce)
{
    for (unsigned jobs : {1u, 2u, 3u, 8u}) {
        sim::BatchRunner runner(jobs);
        for (size_t n : {size_t{1}, size_t{7}, size_t{5000}}) {
            std::vector<std::atomic<int>> hits(n);
            runner.forEach(n, [&](size_t i) { hits[i].fetch_add(1); });
            for (size_t i = 0; i < n; i++)
                ASSERT_EQ(hits[i].load(), 1)
                    << "index " << i << " of " << n << ", jobs " << jobs;
        }

        // A forEach inside a forEach body fans out on its own threads
        // and still covers its whole index space once per outer index.
        std::vector<std::atomic<int>> inner(8 * 16);
        runner.forEach(8, [&](size_t outer) {
            runner.forEach(16, [&](size_t i) {
                inner[outer * 16 + i].fetch_add(1);
            });
        });
        for (size_t i = 0; i < inner.size(); i++)
            ASSERT_EQ(inner[i].load(), 1)
                << "nested cell " << i << ", jobs " << jobs;
    }
}

size_t
liveThreads()
{
    namespace fs = std::filesystem;
    return static_cast<size_t>(std::distance(
        fs::directory_iterator("/proc/self/task"), fs::directory_iterator()));
}

TEST(BatchRunnerTest, NoThreadOutlivesForEach)
{
    // proc_runner fork()s with no guard because of this property:
    // forEach joins every thread it starts before returning.
    const size_t before = liveThreads();

    // Hold four bodies in flight together while each one counts the
    // threads, so the count provably sees the call's full fan-out.
    auto barrier = [](std::atomic<int> &count) {
        count.fetch_add(1);
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (count.load() < 4 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
    };
    std::atomic<int> arrived{0};
    std::atomic<int> measured{0};
    std::vector<size_t> during(4);
    sim::BatchRunner(4).forEach(4, [&](size_t i) {
        barrier(arrived);
        during[i] = liveThreads();
        barrier(measured);
    });
    for (size_t count : during)
        EXPECT_EQ(count, before + 3);
    EXPECT_EQ(liveThreads(), before);
}

TEST(BatchRunnerTest, ExceptionSurfacesWithoutDeadlock)
{
    sim::BatchRunner runner(4);
    std::atomic<int> completed{0};
    try {
        runner.forEach(32, [&](size_t i) {
            if (i == 7)
                throw std::runtime_error("job 7 exploded");
            completed.fetch_add(1);
        });
        FAIL() << "expected the job's exception to propagate";
    } catch (const std::runtime_error &err) {
        EXPECT_STREQ(err.what(), "job 7 exploded");
    }
    // The pool drained: every other job still ran exactly once.
    EXPECT_EQ(completed.load(), 31);
}

TEST(BatchRunnerTest, LowestIndexedExceptionWins)
{
    // Two failing jobs: the caller must see the lowest-indexed one
    // deterministically, regardless of worker scheduling.
    sim::BatchRunner runner(4);
    try {
        runner.forEach(16, [&](size_t i) {
            if (i == 3)
                throw std::runtime_error("first failure");
            if (i == 11)
                throw std::runtime_error("second failure");
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &err) {
        EXPECT_STREQ(err.what(), "first failure");
    }
}

TEST(BatchRunnerTest, SerialExceptionAlsoPropagates)
{
    sim::BatchRunner runner(1);
    EXPECT_THROW(runner.forEach(
                     4,
                     [](size_t i) {
                         if (i == 2)
                             throw std::logic_error("serial boom");
                     }),
                 std::logic_error);
}

TEST(BatchRunnerTest, EmptyAndTinyBatches)
{
    sim::BatchRunner runner(8);
    // n == 0: no workers, no calls.
    runner.forEach(0, [](size_t) { FAIL() << "must not be called"; });

    // Fewer jobs than workers: each index runs exactly once.
    std::vector<std::atomic<int>> hits(3);
    runner.forEach(3, [&](size_t i) { hits[i].fetch_add(1); });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);

    EXPECT_TRUE(runner.run({}).empty());
}

} // namespace
