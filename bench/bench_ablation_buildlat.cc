/**
 * @file
 * Ablation: microthread build latency. Section 4.2.2 claims "the
 * microthread build latency, unless extreme, does not significantly
 * influence performance"; this bench sweeps it across four orders
 * of magnitude.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace ssmt;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    auto suite = bench::suiteFromNames(
        args.quick ? std::vector<std::string>{"comp", "go"}
                   : std::vector<std::string>{"comp", "go", "perl",
                                              "crafty_2k",
                                              "twolf_2k"});
    bench::BenchRun run("ablation_buildlat", args);

    const int lats[] = {0, 10, 100, 1000, 10000, 100000};
    std::vector<sim::CampaignVariant> variants = {{"baseline", {}}};
    for (int lat : lats) {
        variants.push_back({"buildlat-" + std::to_string(lat),
                            {"mode=microthread",
                             "buildLatency=" + std::to_string(lat)}});
    }
    auto results = run.grid(suite, variants);

    std::printf("Ablation: build-latency sensitivity (Section 4.2.2 "
                "claim)\n\n");
    std::printf("%-12s", "bench");
    for (int lat : lats)
        std::printf(" %8d", lat);
    std::printf("\n");
    bench::hr(66);

    for (size_t w = 0; w < suite.size(); w++) {
        const sim::Stats &base = results[w][0].stats;
        std::printf("%-12s", suite[w].name.c_str());
        for (size_t v = 1; v < variants.size(); v++)
            std::printf(" %8.3f",
                        sim::speedup(results[w][v].stats, base));
        std::printf("\n");
    }
    std::printf("\nExpected shape: flat across moderate latencies; "
                "only extreme values (which\nstarve the MicroRAM of "
                "routines, especially in our short runs) hurt.\n");
    run.finish();
    return 0;
}
