/**
 * @file
 * Ablation: Path Cache capacity and training-interval sensitivity.
 * The paper notes it "simulated many other configurations" beyond
 * the 8K-entry / interval-32 point (Section 5.2) and calls better
 * difficult-path tracking an area of future work; this bench maps
 * that neighbourhood.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace ssmt;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    // A mispredict-heavy subset keeps this ablation affordable.
    auto suite = bench::suiteFromNames(
        args.quick ? std::vector<std::string>{"comp", "go"}
                   : std::vector<std::string>{"comp", "go",
                                              "crafty_2k",
                                              "parser_2k",
                                              "twolf_2k"});
    bench::BenchRun run("ablation_pathcache", args);

    const uint32_t entry_counts[] = {512, 2048, 8192, 32768};
    const uint32_t intervals[] = {8, 16, 32, 64, 128};

    // One matrix covers both sweeps: column 0 is the shared baseline,
    // then the capacity points, then the training-interval points.
    std::vector<sim::CampaignVariant> variants = {{"baseline", {}}};
    for (uint32_t entries : entry_counts) {
        variants.push_back(
            {"entries-" + std::to_string(entries),
             {"mode=microthread",
              "pathCacheEntries=" + std::to_string(entries)}});
    }
    for (uint32_t interval : intervals) {
        variants.push_back(
            {"interval-" + std::to_string(interval),
             {"mode=microthread",
              "trainingInterval=" + std::to_string(interval)}});
    }
    auto results = run.grid(suite, variants);

    std::printf("Ablation: microthread-mode speed-up vs Path Cache "
                "geometry (n = 10, T = .10)\n\n");

    std::printf("Path Cache capacity sweep (training interval 32):\n");
    std::printf("%-12s", "bench");
    for (uint32_t entries : entry_counts)
        std::printf(" %8u", entries);
    std::printf("\n");
    bench::hr(50);
    for (size_t w = 0; w < suite.size(); w++) {
        const sim::Stats &base = results[w][0].stats;
        std::printf("%-12s", suite[w].name.c_str());
        for (size_t i = 0; i < 4; i++)
            std::printf(" %8.3f",
                        sim::speedup(results[w][1 + i].stats, base));
        std::printf("\n");
    }

    std::printf("\nTraining interval sweep (8K entries):\n");
    std::printf("%-12s", "bench");
    for (uint32_t interval : intervals)
        std::printf(" %8u", interval);
    std::printf("\n");
    bench::hr(58);
    for (size_t w = 0; w < suite.size(); w++) {
        const sim::Stats &base = results[w][0].stats;
        std::printf("%-12s", suite[w].name.c_str());
        for (size_t i = 0; i < 5; i++)
            std::printf(" %8.3f",
                        sim::speedup(results[w][5 + i].stats, base));
        std::printf("\n");
    }

    std::printf("\nExpected shape: gains shrink with tiny path caches "
                "(difficult paths evicted\nbefore their training "
                "interval completes) and with very long intervals "
                "(slow\nreaction); our short runs amplify the "
                "long-interval penalty relative to the\npaper's "
                "billion-instruction runs.\n");
    run.finish();
    return 0;
}
