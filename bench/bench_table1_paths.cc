/**
 * @file
 * Reproduces **Table 1**: unique paths, average scope size (in
 * instructions), and number of difficult paths for n = {4, 10, 16}
 * and T = {.05, .10, .15}, per benchmark, plus the suite average.
 *
 * Also prints the Section 4.1 observation: the fraction of Path
 * Cache allocations avoided by allocating only on mispredictions
 * (the paper reports ~45% for an 8K-entry cache).
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/path_cache.hh"
#include "core/path_tracker.hh"
#include "sim/path_profiler.hh"

using namespace ssmt;

namespace
{

/** One profiled workload's Table 1 numbers, for all three n. */
struct ProfileRow
{
    uint64_t paths[3];
    double scope[3];
    uint64_t t05[3], t10[3], t15[3];
};

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    auto suite = bench::benchSuite(args.quick);
    bench::BenchRun run("table1_paths", args);
    sim::BatchRunner runner(args.jobs);
    const int ns[3] = {4, 10, 16};

    // Phase 1: profile every workload concurrently; each slot is
    // written only by its own index.
    std::vector<ProfileRow> rows(suite.size());
    runner.forEach(suite.size(), [&](size_t w) {
        sim::PathProfiler profiler({4, 10, 16});
        profiler.profile(suite[w].make({}), 20'000'000);
        for (int i = 0; i < 3; i++) {
            rows[w].paths[i] = profiler.uniquePaths(ns[i]);
            rows[w].scope[i] = profiler.avgScope(ns[i]);
            rows[w].t05[i] = profiler.difficultPaths(ns[i], 0.05);
            rows[w].t10[i] = profiler.difficultPaths(ns[i], 0.10);
            rows[w].t15[i] = profiler.difficultPaths(ns[i], 0.15);
        }
    });

    std::printf("Table 1: unique paths, average scope, and difficult "
                "paths by n and T\n");
    std::printf("(paper: Chappell et al., ISCA 2002; workloads are "
                "the SPECint proxies)\n\n");
    std::printf("%-12s", "bench");
    for (int n : ns) {
        std::printf(" | n=%-2d %8s %8s %7s %7s %7s", n, "paths",
                    "scope", "T=.05", "T=.10", "T=.15");
    }
    std::printf("\n");
    bench::hr(152);

    struct Sums
    {
        double paths = 0, scope = 0, t05 = 0, t10 = 0, t15 = 0;
    } sums[3];
    int count = 0;

    for (size_t w = 0; w < suite.size(); w++) {
        std::printf("%-12s", suite[w].name.c_str());
        for (int i = 0; i < 3; i++) {
            std::printf(" |      %8llu %8.2f %7llu %7llu %7llu",
                        static_cast<unsigned long long>(
                            rows[w].paths[i]),
                        rows[w].scope[i],
                        static_cast<unsigned long long>(rows[w].t05[i]),
                        static_cast<unsigned long long>(rows[w].t10[i]),
                        static_cast<unsigned long long>(
                            rows[w].t15[i]));
            sums[i].paths += static_cast<double>(rows[w].paths[i]);
            sums[i].scope += rows[w].scope[i];
            sums[i].t05 += static_cast<double>(rows[w].t05[i]);
            sums[i].t10 += static_cast<double>(rows[w].t10[i]);
            sums[i].t15 += static_cast<double>(rows[w].t15[i]);
        }
        std::printf("\n");
        count++;
    }
    bench::hr(152);
    std::printf("%-12s", "Average");
    for (int i = 0; i < 3; i++) {
        std::printf(" |      %8.0f %8.2f %7.0f %7.0f %7.0f",
                    sums[i].paths / count, sums[i].scope / count,
                    sums[i].t05 / count, sums[i].t10 / count,
                    sums[i].t15 / count);
    }
    std::printf("\n\n");

    // ---- Section 4.1: allocations avoided by mispredict-only
    // allocation on a realistic 8K-entry Path Cache.
    // The difficult-path oracle mode tracks paths.
    auto results = run.grid(
        suite, {{"oracle-paths", {"mode=oracle-difficult-path"}}});

    std::printf("Section 4.1: Path Cache allocations skipped by "
                "mispredict-only allocation (8K entries, n=10)\n");
    double skip_sum = 0;
    int skip_count = 0;
    for (size_t w = 0; w < suite.size(); w++) {
        const sim::Stats &stats = results[w][0].stats;
        uint64_t total = stats.pathCacheAllocations +
                         stats.pathCacheAllocationsSkipped;
        double frac =
            total ? static_cast<double>(
                        stats.pathCacheAllocationsSkipped) /
                        static_cast<double>(total)
                  : 0.0;
        std::printf("  %-12s %5.1f%% skipped\n",
                    suite[w].name.c_str(), 100.0 * frac);
        skip_sum += frac;
        skip_count++;
    }
    std::printf("  %-12s %5.1f%% skipped   (paper: ~45%%)\n",
                "Average", 100.0 * skip_sum / skip_count);
    run.finish();
    return 0;
}
