/**
 * @file
 * Tests for fault-tolerant batch execution: per-job error capture,
 * the cycle-budget watchdog, and the library-safe fatal /
 * rate-limited warn logging paths.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "isa/builder.hh"
#include "sim/batch_runner.hh"
#include "sim/logging.hh"
#include "sim/machine_config.hh"
#include "sim/sim_error.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;
using namespace ssmt::sim;

// Small, quickly-terminating kernel for sibling jobs.
isa::Program
tinyProgram()
{
    workloads::SyntheticSpec spec;
    spec.numSites = 2;
    spec.elemsPerSite = 16;
    spec.takenPercent = {50, 50};
    spec.iters = 8;
    return workloads::makeSynthetic(spec);
}

// An infinite loop: beq on equal registers is always taken, so the
// program never reaches halt. Only a watchdog can end this job.
isa::Program
spinProgram()
{
    isa::ProgramBuilder b;
    b.label("spin");
    b.addi(isa::R(1), isa::R(1), 1);
    b.beq(isa::R(0), isa::R(0), "spin");
    b.halt();
    return b.build("spin");
}

MachineConfig
mtConfig()
{
    MachineConfig cfg;
    cfg.mode = Mode::Microthread;
    return cfg;
}

TEST(BatchFaultsTest, ThrowingJobBecomesErrorSlot)
{
    std::vector<BatchJob> batch(3);
    batch[0] = {"good0", tinyProgram(), mtConfig()};
    batch[1] = {"bad", tinyProgram(), mtConfig()};
    batch[1].config.windowSize = 0;    // rejected by validate()
    batch[2] = {"good1", tinyProgram(), mtConfig()};

    BatchPolicy policy;
    std::vector<BatchResult> results =
        BatchRunner(2).run(batch, policy);

    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok()) << results[0].error;
    EXPECT_TRUE(results[2].ok()) << results[2].error;
    EXPECT_GT(results[0].stats.retiredInsts, 0u);
    EXPECT_GT(results[2].stats.retiredInsts, 0u);

    EXPECT_FALSE(results[1].ok());
    EXPECT_EQ(results[1].errorCode, ErrorCode::ConfigInvalid);
    EXPECT_EQ(results[1].attempts, 1u);
    EXPECT_NE(results[1].error.find("windowSize"), std::string::npos)
        << results[1].error;
}

TEST(BatchFaultsTest, WatchdogTripsOnHungJob)
{
    std::vector<BatchJob> batch(2);
    batch[0] = {"spin", spinProgram(), mtConfig()};
    batch[1] = {"good", tinyProgram(), mtConfig()};

    BatchPolicy policy;
    policy.cycleBudget = 60000;
    std::vector<BatchResult> results =
        BatchRunner(2).run(batch, policy);

    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].ok());
    EXPECT_EQ(results[0].errorCode, ErrorCode::WatchdogExpired);
    // Every job runs once; a rerun would only repeat the failure.
    EXPECT_EQ(results[0].attempts, 1u);
    EXPECT_NE(results[0].error.find("spin"), std::string::npos);

    EXPECT_TRUE(results[1].ok()) << results[1].error;
    EXPECT_GT(results[1].stats.retiredInsts, 0u);
}

// A batch mixing clean jobs, a fault-injected job, and a failing job
// must produce bit-identical results regardless of worker count —
// including the error fields.
TEST(BatchFaultsTest, MixedBatchIsDeterministicAcrossWorkerCounts)
{
    std::vector<BatchJob> batch(4);
    batch[0] = {"clean", tinyProgram(), mtConfig()};
    batch[1] = {"faulted", tinyProgram(), mtConfig()};
    batch[1].config.faults.site = FaultSite::PathCacheEvict;
    batch[1].config.faults.count = 4;
    batch[1].config.faults.seed = 77;
    batch[1].config.faults.period = 40;
    batch[2] = {"bad", tinyProgram(), mtConfig()};
    batch[2].config.prbEntries = 0;
    batch[3] = {"spin", spinProgram(), mtConfig()};

    BatchPolicy policy;
    policy.cycleBudget = 60000;

    std::vector<BatchResult> serial =
        BatchRunner(1).run(batch, policy);
    std::vector<BatchResult> parallel =
        BatchRunner(4).run(batch, policy);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); i++) {
        EXPECT_EQ(std::memcmp(&serial[i].stats, &parallel[i].stats,
                              sizeof(Stats)),
                  0)
            << batch[i].name;
        EXPECT_EQ(serial[i].error, parallel[i].error)
            << batch[i].name;
        EXPECT_EQ(serial[i].errorCode, parallel[i].errorCode)
            << batch[i].name;
        EXPECT_EQ(serial[i].attempts, parallel[i].attempts)
            << batch[i].name;
        EXPECT_EQ(serial[i].faults.injected,
                  parallel[i].faults.injected)
            << batch[i].name;
    }
}

TEST(BatchFaultsTest, FailureSummaryDigestsFailedJobs)
{
    std::vector<BatchJob> batch(2);
    batch[0] = {"fine", tinyProgram(), mtConfig()};
    batch[1] = {"broken", tinyProgram(), mtConfig()};
    batch[1].config.fetchWidth = 0;

    std::vector<BatchResult> results = BatchRunner(1).run(batch);
    std::string summary =
        BatchRunner::failureSummary(batch, results);
    EXPECT_NE(summary.find("broken"), std::string::npos);
    EXPECT_EQ(summary.find("fine"), std::string::npos);
    // The error text already starts with its tag; the digest prints
    // it once.
    const size_t tag = summary.find("[config-invalid]");
    ASSERT_NE(tag, std::string::npos);
    EXPECT_EQ(summary.find("[config-invalid]", tag + 1), std::string::npos)
        << summary;
    EXPECT_EQ(summary, "broken: " + results[1].error + "\n");

    std::vector<BatchJob> all_good(1);
    all_good[0] = {"ok", tinyProgram(), mtConfig()};
    std::vector<BatchResult> good_results =
        BatchRunner(1).run(all_good);
    EXPECT_TRUE(
        BatchRunner::failureSummary(all_good, good_results).empty());
}

TEST(LoggingTest, WarnIsRateLimitedPerSiteAcrossThreads)
{
    const uint64_t emitted_before = ssmt::detail::warnEmittedTotal();
    const uint64_t suppressed_before =
        ssmt::detail::warnSuppressedTotal();

    const int kThreads = 4;
    const int kWarnsPerThread = 100;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([] {
            for (int i = 0; i < kWarnsPerThread; i++) {
                SSMT_WARN("rate-limit test warning");  // one site
            }
        });
    }
    for (std::thread &t : threads) {
        t.join();
    }

    const uint64_t total =
        static_cast<uint64_t>(kThreads) * kWarnsPerThread;
    const uint64_t emitted =
        ssmt::detail::warnEmittedTotal() - emitted_before;
    const uint64_t suppressed =
        ssmt::detail::warnSuppressedTotal() - suppressed_before;

    // First 5 verbatim plus one suppression notice; the rest are
    // counted but never printed.
    EXPECT_EQ(emitted, ssmt::detail::kWarnVerbatimPerSite + 1);
    EXPECT_EQ(suppressed,
              total - ssmt::detail::kWarnVerbatimPerSite);
    EXPECT_EQ(emitted + suppressed, total + 1);
}

} // namespace
