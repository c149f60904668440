/**
 * @file
 * Reproduces **Table 2**: misprediction and execution coverages for
 * difficult branches versus difficult paths (n = {4, 10, 16}) at
 * T = {.05, .10, .15}.
 *
 * The paper's headline from this table: "classifying by paths
 * increases coverage of mispredictions, while lowering execution
 * coverage."
 */

#include <cstdio>
#include <memory>

#include "bench_util.hh"
#include "sim/path_profiler.hh"

using namespace ssmt;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    auto suite = bench::benchSuite(args.quick);
    bench::BenchRun run("table2_coverage", args);
    sim::BatchRunner runner(args.jobs);

    // One profile per workload serves all three thresholds; run them
    // concurrently, then read the coverages serially below.
    std::vector<std::unique_ptr<sim::PathProfiler>> profilers(
        suite.size());
    runner.forEach(suite.size(), [&](size_t w) {
        profilers[w] = std::make_unique<sim::PathProfiler>(
            std::vector<int>{4, 10, 16});
        profilers[w]->profile(suite[w].make({}), 20'000'000);
    });

    std::printf("Table 2: misprediction%% / execution%% coverage of "
                "difficult branches vs difficult paths\n\n");

    for (double threshold : {0.05, 0.10, 0.15}) {
        std::printf("T = %.2f\n", threshold);
        std::printf("%-12s | %6s %6s | %6s %6s | %6s %6s | %6s %6s\n",
                    "bench", "Br mis", "exe", "n4 mis", "exe",
                    "n10mis", "exe", "n16mis", "exe");
        bench::hr(80);
        double sums[8] = {};
        int count = 0;
        for (size_t w = 0; w < suite.size(); w++) {
            const sim::PathProfiler &profiler = *profilers[w];
            double row[8] = {
                profiler.branchMisCoverage(threshold),
                profiler.branchExeCoverage(threshold),
                profiler.pathMisCoverage(4, threshold),
                profiler.pathExeCoverage(4, threshold),
                profiler.pathMisCoverage(10, threshold),
                profiler.pathExeCoverage(10, threshold),
                profiler.pathMisCoverage(16, threshold),
                profiler.pathExeCoverage(16, threshold),
            };
            std::printf("%-12s |  %5.1f %6.1f |  %5.1f %6.1f |  %5.1f "
                        "%6.1f |  %5.1f %6.1f\n",
                        suite[w].name.c_str(), 100 * row[0],
                        100 * row[1], 100 * row[2], 100 * row[3],
                        100 * row[4], 100 * row[5], 100 * row[6],
                        100 * row[7]);
            for (int i = 0; i < 8; i++)
                sums[i] += row[i];
            count++;
        }
        bench::hr(80);
        std::printf("%-12s |  %5.1f %6.1f |  %5.1f %6.1f |  %5.1f "
                    "%6.1f |  %5.1f %6.1f\n\n",
                    "Average", 100 * sums[0] / count,
                    100 * sums[1] / count, 100 * sums[2] / count,
                    100 * sums[3] / count, 100 * sums[4] / count,
                    100 * sums[5] / count, 100 * sums[6] / count,
                    100 * sums[7] / count);
    }

    std::printf("Paper's claim to check: path misprediction coverage "
                "rises with n while\nexecution coverage falls "
                "relative to the difficult-branch columns.\n");
    run.finish();
    return 0;
}
