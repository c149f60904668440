/**
 * @file
 * Difficult-path explorer: profile a suite workload's paths
 * (Section 3-style characterization), then run the full mechanism
 * and dump real microthread routines the hardware builder extracted
 * — the complete pipeline from classification to slices.
 *
 *   ./difficult_path_explorer [workload] [n]
 *   ./difficult_path_explorer go 10
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cpu/ssmt_core.hh"
#include "sim/path_profiler.hh"
#include "sim/sim_error.hh"
#include "sim/sim_runner.hh"
#include "workloads/workloads.hh"

using namespace ssmt;

namespace
{

int
explore(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "go";
    int n = argc > 2 ? std::atoi(argv[2]) : 10;
    isa::Program prog = workloads::makeWorkload(name);

    // ---- 1. Offline path characterization (Tables 1 and 2) ----
    sim::PathProfiler profiler({n});
    profiler.profile(prog, 20'000'000);
    std::printf("%s, n = %d:\n", name.c_str(), n);
    std::printf("  dynamic instructions   %10llu\n",
                static_cast<unsigned long long>(
                    profiler.dynamicInsts()));
    std::printf("  terminating branches   %10llu  (%llu static)\n",
                static_cast<unsigned long long>(
                    profiler.branchExecs()),
                static_cast<unsigned long long>(
                    profiler.uniqueBranches()));
    std::printf("  hw mispredictions      %10llu\n",
                static_cast<unsigned long long>(
                    profiler.mispredicts()));
    std::printf("  unique paths           %10llu  (avg scope %.1f "
                "insts)\n",
                static_cast<unsigned long long>(
                    profiler.uniquePaths(n)),
                profiler.avgScope(n));
    for (double t : {0.05, 0.10, 0.15}) {
        std::printf("  T=%.2f: %6llu difficult paths covering "
                    "%.1f%% of mispredictions with %.1f%% of "
                    "executions\n",
                    t,
                    static_cast<unsigned long long>(
                        profiler.difficultPaths(n, t)),
                    100 * profiler.pathMisCoverage(n, t),
                    100 * profiler.pathExeCoverage(n, t));
    }

    // ---- 2. Run the hardware mechanism and inspect its output ----
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cfg.pathN = n;
    cfg.builder.pruningEnabled = true;
    cpu::SsmtCore core(prog, cfg);
    const sim::Stats &stats = core.run();

    std::printf("\nmechanism run: %llu promotions, %llu spawns, "
                "%llu predictions used early, %llu late\n",
                static_cast<unsigned long long>(
                    stats.promotionsCompleted),
                static_cast<unsigned long long>(stats.spawns),
                static_cast<unsigned long long>(stats.predEarly),
                static_cast<unsigned long long>(stats.predLate));

    // Dump up to three routines the builder extracted, largest
    // first — these are the actual dataflow slices the hardware
    // would execute.
    std::vector<core::PathId> ids = core.microRam().ids();
    std::sort(ids.begin(), ids.end(),
              [&](core::PathId a, core::PathId b) {
                  return core.microRam().find(a)->size() >
                         core.microRam().find(b)->size();
              });
    std::printf("\n%zu routines resident in the MicroRAM; largest "
                "three:\n\n",
                ids.size());
    for (size_t i = 0; i < ids.size() && i < 3; i++) {
        const core::MicroThread *thread =
            core.microRam().find(ids[i]);
        std::printf("%s\n", thread->toString().c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // An unknown workload name is a usage error, not a crash.
    try {
        return explore(argc, argv);
    } catch (const sim::SimError &err) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.what());
        return 2;
    }
}
