/**
 * @file
 * google-benchmark microbenchmarks of the hot hardware structures:
 * the Path_Id hash, path tracker, branch predictors, value
 * predictor, caches, Path Cache, Prediction Cache, microthread
 * builder, and BatchRunner's fork-join dispatch. End-to-end
 * simulator speed is perfbench's measurement (perfbench/).
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "bpred/frontend_predictor.hh"
#include "sim/batch_runner.hh"
#include "bpred/hybrid.hh"
#include "core/path_cache.hh"
#include "core/path_tracker.hh"
#include "core/prediction_cache.hh"
#include "core/uthread_builder.hh"
#include "memory/hierarchy.hh"
#include "vpred/value_predictor.hh"

namespace
{

using namespace ssmt;

void
BM_PathHashStep(benchmark::State &state)
{
    core::PathId h = 0;
    uint64_t addr = 0x1234;
    for (auto _ : state) {
        h = core::hashStep(h, addr);
        addr += 4;
        benchmark::DoNotOptimize(h);
    }
}
BENCHMARK(BM_PathHashStep);

void
BM_PathTrackerPathId(benchmark::State &state)
{
    core::PathTracker tracker(16);
    for (int i = 0; i < 16; i++)
        tracker.push(static_cast<uint64_t>(i) * 40);
    int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(tracker.pathId(n));
        tracker.push(0x400);
    }
}
BENCHMARK(BM_PathTrackerPathId)->Arg(4)->Arg(10)->Arg(16);

void
BM_HybridPredictUpdate(benchmark::State &state)
{
    bpred::Hybrid hybrid;
    uint64_t pc = 0;
    for (auto _ : state) {
        bool taken = (pc & 3) != 0;
        benchmark::DoNotOptimize(hybrid.predict(pc));
        hybrid.update(pc, taken);
        pc = (pc + 7) & 0xffff;
    }
}
BENCHMARK(BM_HybridPredictUpdate);

void
BM_ValuePredictorTrain(benchmark::State &state)
{
    vpred::ValuePredictor vp;
    uint64_t pc = 0;
    uint64_t value = 0;
    for (auto _ : state) {
        vp.train(pc, value);
        pc = (pc + 3) & 0xfff;
        value += 8;
    }
}
BENCHMARK(BM_ValuePredictorTrain);

void
BM_CacheAccess(benchmark::State &state)
{
    memory::Cache cache("bench", 64 * 1024, 2, 64);
    uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr));
        addr = (addr + 4096 + 64) & 0xfffff;
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_HierarchyRead(benchmark::State &state)
{
    memory::Hierarchy hier;
    uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(hier.read(addr));
        addr = (addr + 64) & 0x3fffff;
    }
}
BENCHMARK(BM_HierarchyRead);

void
BM_PathCacheUpdate(benchmark::State &state)
{
    core::PathCache pc(8192, 8, 32, 0.10);
    uint64_t id = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pc.update(id, (id & 7) == 0));
        id = (id * 0x9e3779b97f4a7c15ull) >> 13;
    }
}
BENCHMARK(BM_PathCacheUpdate);

void
BM_PredictionCacheWriteLookup(benchmark::State &state)
{
    core::PredictionCache pcache(128);
    uint64_t seq = 0;
    for (auto _ : state) {
        pcache.write(1, seq + 50, true, 0, seq);
        benchmark::DoNotOptimize(pcache.lookup(1, seq + 50));
        if ((seq & 63) == 0)
            pcache.reclaimOlderThan(seq);
        seq++;
    }
}
BENCHMARK(BM_PredictionCacheWriteLookup);

void
BM_MicrothreadBuild(benchmark::State &state)
{
    // A representative PRB: one path branch, a 24-op dataflow
    // region, and the terminating branch.
    core::Prb prb(512);
    core::PrbEntry jump;
    jump.pc = 5;
    jump.inst = isa::Inst{isa::Opcode::J, isa::kNoReg, isa::kNoReg,
                          isa::kNoReg, 10};
    jump.taken = true;
    jump.target = 10;
    prb.push(jump);
    for (uint64_t i = 0; i < 24; i++) {
        core::PrbEntry entry;
        entry.seq = 100 + i;
        entry.pc = 10 + i;
        entry.inst = isa::Inst{isa::Opcode::Addi,
                               static_cast<isa::RegIndex>(1 + i % 8),
                               static_cast<isa::RegIndex>(1 + (i + 1) % 8),
                               isa::kNoReg, 1};
        prb.push(entry);
    }
    core::PrbEntry branch;
    branch.seq = 200;
    branch.pc = 40;
    branch.inst = isa::Inst{isa::Opcode::Bne, isa::kNoReg, 1, 0, 50};
    branch.taken = true;
    branch.target = 50;
    prb.push(branch);

    core::PathId id = core::hashStep(0, 5 * isa::kInstBytes);
    vpred::ValuePredictor vp, ap;
    core::UthreadBuilder builder;
    for (auto _ : state) {
        auto thread = builder.build(prb, id, 1, vp, ap);
        benchmark::DoNotOptimize(thread);
    }
}
BENCHMARK(BM_MicrothreadBuild);

void
BM_BatchRunnerForEach(benchmark::State &state)
{
    // Dispatch overhead of the fork-join forEach: many tiny jobs, so the
    // ticket claim and thread startup dominate.
    sim::BatchRunner runner(
        static_cast<unsigned>(state.range(0)));
    constexpr size_t kJobs = 1024;
    for (auto _ : state) {
        std::atomic<uint64_t> sum{0};
        runner.forEach(kJobs, [&](size_t i) {
            sum.fetch_add(i, std::memory_order_relaxed);
        });
        benchmark::DoNotOptimize(sum.load());
    }
    state.counters["job/s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * kJobs),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchRunnerForEach)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // namespace

// Custom main: the bench-smoke harness passes --quick/--jobs to every
// bench binary, but google-benchmark rejects flags it doesn't know.
// Strip ours (honouring --quick by capping the measurement time)
// before handing the rest to benchmark::Initialize.
int
main(int argc, char **argv)
{
    bool quick = false;
    std::vector<char *> rest;
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
            continue;
        }
        if (std::strcmp(argv[i], "--jobs") == 0) {
            if (i + 1 < argc)
                i++;  // pool size is irrelevant to a microbenchmark
            continue;
        }
        rest.push_back(argv[i]);
    }
    static std::string min_time = "--benchmark_min_time=0.01";
    if (quick)
        rest.push_back(min_time.data());
    int rest_argc = static_cast<int>(rest.size());
    benchmark::Initialize(&rest_argc, rest.data());
    if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
