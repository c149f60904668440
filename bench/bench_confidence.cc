/**
 * @file
 * Substrate validation for the paper's Section 3 premise, via its
 * reference [10] (Jacobsen/Rotenberg/Smith confidence): "the
 * predictability of a branch is correlated to the control-flow path
 * leading up to it."
 *
 * For each workload we run the baseline hybrid predictor and train
 * two JRS estimators side by side — one indexed by branch pc only,
 * one by (pc, Path_Id) — and report what fraction of mispredictions
 * each lets through as "high confidence" (lower is better), plus
 * the fraction of branches it dares to call high-confidence
 * (higher is better). Path indexing should dominate.
 */

#include <cstdio>

#include "bench_util.hh"
#include "bpred/frontend_predictor.hh"
#include "bpred/jrs_confidence.hh"
#include "core/path_tracker.hh"
#include "isa/executor.hh"

using namespace ssmt;

namespace
{

struct ConfidenceResult
{
    double pc_leak = 0, path_leak = 0;
    double pc_cover = 0, path_cover = 0;
};

ConfidenceResult
measure(const isa::Program &prog, uint64_t max_insts)
{
    isa::RegFile regs;
    isa::MemoryImage mem;
    prog.loadData(mem);
    bpred::FrontEndPredictor fep;
    core::PathTracker tracker(16);
    bpred::JrsConfidence by_pc(64 * 1024, 8, 15);
    bpred::JrsConfidence by_path(64 * 1024, 8, 15);

    uint64_t misses = 0, high_pc = 0, high_path = 0;
    uint64_t leak_pc = 0, leak_path = 0, branches = 0;

    uint64_t pc = prog.entry();
    for (uint64_t count = 0; count < max_insts; count++) {
        const isa::Inst &inst = prog.inst(pc);
        isa::StepResult res = isa::step(inst, pc, regs, mem);
        if (res.halted)
            break;
        if (inst.isControl()) {
            if (inst.isTerminatingBranch()) {
                branches++;
                core::PathId path = tracker.pathId(10);
                bpred::HwPrediction hw = fep.predictAndTrain(
                    pc, inst, res.taken, res.target);
                bool pc_high = by_pc.highConfidence(pc, 0);
                bool path_high = by_path.highConfidence(pc, path);
                if (pc_high)
                    high_pc++;
                if (path_high)
                    high_path++;
                if (!hw.correct) {
                    misses++;
                    if (pc_high)
                        leak_pc++;
                    if (path_high)
                        leak_path++;
                }
                by_pc.update(pc, 0, hw.correct);
                by_path.update(pc, path, hw.correct);
            } else {
                fep.predictAndTrain(pc, inst, res.taken, res.target);
            }
            if (res.taken)
                tracker.push(pc * isa::kInstBytes);
        }
        pc = res.nextPc;
    }

    ConfidenceResult out;
    if (misses) {
        out.pc_leak = static_cast<double>(leak_pc) / misses;
        out.path_leak = static_cast<double>(leak_path) / misses;
    }
    if (branches) {
        out.pc_cover = static_cast<double>(high_pc) / branches;
        out.path_cover = static_cast<double>(high_path) / branches;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    auto suite = bench::benchSuite(args.quick);
    bench::BenchRun run("confidence", args);
    sim::BatchRunner runner(args.jobs);

    // The measurement loop is bespoke (no Stats, no campaign), so
    // fan it out with forEach into per-index slots.
    std::vector<ConfidenceResult> rows(suite.size());
    runner.forEach(suite.size(), [&](size_t w) {
        rows[w] = measure(suite[w].make({}), 20'000'000);
    });

    std::printf("Confidence substrate ([10], JRS): high-confidence "
                "coverage and misprediction\nleakage, pc-indexed vs "
                "path-indexed (n = 10)\n\n");
    std::printf("%-12s | %9s %9s | %9s %9s\n", "bench", "cover(pc)",
                "leak(pc)", "cover(pa)", "leak(pa)");
    bench::hr(60);

    double sums[4] = {};
    int count = 0;
    for (size_t w = 0; w < suite.size(); w++) {
        const ConfidenceResult &r = rows[w];
        std::printf("%-12s |   %6.1f%%   %6.1f%% |   %6.1f%%   "
                    "%6.1f%%\n",
                    suite[w].name.c_str(), 100 * r.pc_cover,
                    100 * r.pc_leak, 100 * r.path_cover,
                    100 * r.path_leak);
        sums[0] += r.pc_cover;
        sums[1] += r.pc_leak;
        sums[2] += r.path_cover;
        sums[3] += r.path_leak;
        count++;
    }
    bench::hr(60);
    std::printf("%-12s |   %6.1f%%   %6.1f%% |   %6.1f%%   %6.1f%%\n",
                "Average", 100 * sums[0] / count,
                100 * sums[1] / count, 100 * sums[2] / count,
                100 * sums[3] / count);
    std::printf("\nClaim to check: path indexing leaks fewer "
                "mispredictions into the\nhigh-confidence class — "
                "predictability follows the path.\n");
    run.finish();
    return 0;
}
