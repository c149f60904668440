/**
 * @file
 * Table recycling (sim/table_pool.hh): inside a RecycleTables scope a
 * freed table block parks on the thread that freed it and comes back
 * for the next request of its byte size; outside a scope it is
 * released at once; nested scopes release at the outermost close; the
 * parked bytes stay under the cap; and a batch parks nothing past its
 * return. A core built from recycled memory simulates exactly what a
 * fresh one does, and takes almost none of the page faults.
 */

#include <gtest/gtest.h>

#include <malloc.h>
#include <sys/resource.h>

#include <string>
#include <thread>
#include <vector>

#include "bpred/direction_predictor.hh"
#include "cpu/ssmt_core.hh"
#include "sim/batch_runner.hh"
#include "sim/golden.hh"
#include "sim/sim_runner.hh"
#include "sim/table_pool.hh"
#include "workloads/workloads.hh"

#if defined(__SANITIZE_ADDRESS__)
#define SSMT_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SSMT_TEST_ASAN 1
#endif
#endif

#ifdef SSMT_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace
{

using namespace ssmt;
using sim::TableVector;

constexpr size_t kBlockBytes = 64 * 1024;
constexpr size_t kBlockWords = kBlockBytes / sizeof(uint64_t);

TEST(TablePool, FreedBlockComesBackForItsSize)
{
    sim::RecycleTables scope;
    const uint64_t *first = nullptr;
    {
        TableVector<uint64_t> table(kBlockWords);
        for (uint64_t &word : table)
            word = ~0ull;
        first = table.data();
    }
    EXPECT_EQ(sim::parkedTableBytes(), kBlockBytes);
#ifdef SSMT_TEST_ASAN
    // A stale pointer into a parked block is still reported.
    EXPECT_TRUE(__asan_address_is_poisoned(first));
    EXPECT_TRUE(__asan_address_is_poisoned(first + kBlockWords - 1));
#endif

    TableVector<uint64_t> half(kBlockWords / 2);
    EXPECT_NE(half.data(), first);
    EXPECT_EQ(sim::parkedTableBytes(), kBlockBytes);

    TableVector<uint64_t> again(kBlockWords);
    EXPECT_EQ(again.data(), first);
    EXPECT_EQ(sim::parkedTableBytes(), 0u);
#ifdef SSMT_TEST_ASAN
    EXPECT_EQ(__asan_region_is_poisoned(again.data(), kBlockBytes),
              nullptr);
#endif
    for (uint64_t word : again)
        ASSERT_EQ(word, 0u) << "a recycled table is value-initialised";
}

TEST(TablePool, NothingParksOutsideAScope)
{
    {
        TableVector<uint64_t> table(kBlockWords);
    }
    EXPECT_EQ(sim::parkedTableBytes(), 0u);
    {
        sim::RecycleTables scope;
        {
            TableVector<uint64_t> table(kBlockWords);
        }
        EXPECT_EQ(sim::parkedTableBytes(), kBlockBytes);
    }
    EXPECT_EQ(sim::parkedTableBytes(), 0u);
}

TEST(TablePool, NestedScopesReleaseOnlyWhenTheOutermostCloses)
{
    {
        sim::RecycleTables outer;
        {
            sim::RecycleTables inner;
            {
                TableVector<uint64_t> table(kBlockWords);
            }
            EXPECT_EQ(sim::parkedTableBytes(), kBlockBytes);
        }
        EXPECT_EQ(sim::parkedTableBytes(), kBlockBytes);
        {
            TableVector<uint64_t> table(kBlockWords / 2);
        }
        EXPECT_EQ(sim::parkedTableBytes(), kBlockBytes + kBlockBytes / 2);
    }
    EXPECT_EQ(sim::parkedTableBytes(), 0u);
}

TEST(TablePool, ParkedBytesStayUnderTheCap)
{
    constexpr size_t kBig = size_t{1} << 20;
    static_assert(sim::kParkedTableBytesCap % kBig == 0);
    sim::RecycleTables scope;
    {
        std::vector<TableVector<char>> tables;
        for (size_t i = 0; i < sim::kParkedTableBytesCap / kBig + 4; i++)
            tables.emplace_back(kBig);
    }
    EXPECT_EQ(sim::parkedTableBytes(), sim::kParkedTableBytesCap);
    {
        // Full: a block of any size is released, not parked.
        TableVector<uint64_t> table(kBlockWords);
    }
    EXPECT_EQ(sim::parkedTableBytes(), sim::kParkedTableBytesCap);
}

TEST(TablePool, BlockFreedOnAnotherThreadParksThere)
{
    sim::RecycleTables here;
    auto *table = new TableVector<uint64_t>(kBlockWords);
    const uint64_t *block = table->data();
    size_t parked_there = 0;
    bool taken_back = false;
    std::thread other([&] {
        sim::RecycleTables scope;
        delete table;
        parked_there = sim::parkedTableBytes();
        TableVector<uint64_t> again(kBlockWords);
        taken_back = again.data() == block;
    });
    other.join();
    EXPECT_EQ(parked_there, kBlockBytes);
    EXPECT_TRUE(taken_back);
    EXPECT_EQ(sim::parkedTableBytes(), 0u);
}

TEST(TablePool, NothingStaysParkedOnceForEachReturns)
{
    for (unsigned jobs : {1u, 4u}) {
        std::vector<size_t> parked(8, 0);
        sim::BatchRunner(jobs).forEach(parked.size(), [&](size_t i) {
            {
                TableVector<uint64_t> table(kBlockWords);
            }
            parked[i] = sim::parkedTableBytes();
        });
        for (size_t i = 0; i < parked.size(); i++)
            EXPECT_GE(parked[i], kBlockBytes)
                << "index " << i << " ran outside a scope at jobs "
                << jobs;
        EXPECT_EQ(sim::parkedTableBytes(), 0u) << "jobs " << jobs;
    }
}

/** comp and mcf_2k under every direction backend (three predictor
 *  geometries), in baseline and microthread mode. */
std::vector<sim::BatchJob>
mixedGeometryBatch()
{
    std::vector<sim::BatchJob> batch;
    for (const char *workload : {"comp", "mcf_2k"}) {
        isa::Program program = workloads::makeWorkload(workload);
        for (bpred::PredictorKind kind : bpred::allPredictorKinds()) {
            for (sim::Mode mode :
                 {sim::Mode::Baseline, sim::Mode::Microthread}) {
                sim::BatchJob job;
                job.name = std::string(workload) + "/" +
                           bpred::predictorKindName(kind) + "/" +
                           sim::modeName(mode);
                job.program = program;
                job.config.predictor = kind;
                job.config.mode = mode;
                batch.push_back(std::move(job));
            }
        }
    }
    return batch;
}

std::string
goldenText(const std::string &name, const sim::Stats &stats)
{
    sim::GoldenRun run;
    run.workload = name;
    run.stats = stats;
    return sim::goldenJson(run);
}

TEST(TablePool, MixedGeometryBatchMatchesLoneRuns)
{
    const std::vector<sim::BatchJob> batch = mixedGeometryBatch();
    std::vector<std::string> lone;
    for (const sim::BatchJob &job : batch)
        lone.push_back(goldenText(
            job.name,
            sim::runProgramChecked(job.program, job.config, job.name)));
    for (unsigned jobs : {1u, 4u}) {
        std::vector<sim::BatchResult> results =
            sim::BatchRunner(jobs).run(batch);
        ASSERT_EQ(results.size(), batch.size());
        for (size_t i = 0; i < batch.size(); i++) {
            ASSERT_TRUE(results[i].ok()) << results[i].error;
            EXPECT_EQ(goldenText(batch[i].name, results[i].stats), lone[i])
                << batch[i].name << " at jobs " << jobs;
        }
    }
}

/** Minor page faults this thread takes to build and destroy one core,
 *  after the heap's free pages go back to the kernel: memory that is
 *  free when the core is built faults in again, so only parked blocks
 *  come back without faulting, however warm the heap. */
long
coreFaults(const isa::Program &program, const sim::MachineConfig &cfg)
{
    ::malloc_trim(0);
    struct rusage before, after;
    ::getrusage(RUSAGE_THREAD, &before);
    {
        cpu::SsmtCore core(program, cfg);
    }
    ::getrusage(RUSAGE_THREAD, &after);
    return after.ru_minflt - before.ru_minflt;
}

TEST(TablePool, SecondCoreInAScopeFaultsOnlyOutsideItsTables)
{
#ifdef SSMT_TEST_ASAN
    // ASan's quarantine hands every allocation the pool does not serve
    // fresh memory, so the count measures the sanitizer's allocator.
    GTEST_SKIP() << "page-fault counts need the production allocator";
#endif
    // Pin glibc's mmap threshold at its default, as perfbench does.
    ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    const isa::Program program = workloads::makeWorkload("comp");
    const sim::MachineConfig cfg;
    sim::RecycleTables scope;
    const long first = coreFaults(program, cfg);
    const long second = coreFaults(program, cfg);
    // The second core faults only in the ~250 KiB it does not recycle
    // (the window, in-flight and PRB rings and the like): about a
    // tenth of the first core's faults.
    EXPECT_LT(second * 5, first)
        << "first core " << first << " faults, second " << second;
}

} // namespace
