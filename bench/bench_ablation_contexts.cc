/**
 * @file
 * Ablation: microcontext count. The SSMT substrate (Chappell et
 * al., ISCA 1999) allocates a microcontext per live microthread;
 * this paper reports 67% of spawn attempts aborting pre-allocation,
 * partly from context exhaustion. This sweep shows how many
 * concurrent contexts the mechanism actually needs.
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
                                              "crafty_2k", "twolf_2k",
                                              "mcf_2k"});
    bench::BenchRun run("ablation_contexts", args);

    const uint32_t context_counts[] = {1, 2, 4, 8, 16, 32};
    std::vector<sim::CampaignVariant> variants = {{"baseline", {}}};
    for (uint32_t contexts : context_counts) {
        variants.push_back(
            {"contexts-" + std::to_string(contexts),
             {"mode=microthread",
              "numMicrocontexts=" + std::to_string(contexts)}});
    }
    auto results = run.grid(suite, variants);

    std::printf("Ablation: microcontext count (n = 10, T = .10, "
                "no pruning)\n\n");
    std::printf("%-12s", "bench");
    for (uint32_t contexts : context_counts)
        std::printf(" %8u", contexts);
    std::printf("   no-context abort%% @8\n");
    bench::hr(88);

    for (size_t w = 0; w < suite.size(); w++) {
        const sim::Stats &base = results[w][0].stats;
        std::printf("%-12s", suite[w].name.c_str());
        double no_ctx_at_8 = 0.0;
        for (size_t v = 1; v < variants.size(); v++) {
            const sim::Stats &stats = results[w][v].stats;
            std::printf(" %8.3f", sim::speedup(stats, base));
            if (context_counts[v - 1] == 8 && stats.spawnAttempts) {
                no_ctx_at_8 =
                    static_cast<double>(stats.spawnNoContext) /
                    static_cast<double>(stats.spawnAttempts);
            }
        }
        std::printf("   %5.1f%%\n", 100.0 * no_ctx_at_8);
    }
    std::printf("\nShape: speed-up grows with contexts and is still "
                "climbing at 8 (our default,\nmatching the SSMT-era "
                "assumption) on loop-dense proxies — difficult "
                "branches\nrecur every few dozen instructions here, "
                "so spawn demand outstrips the\npaper-era context "
                "budget; the no-context abort column quantifies "
                "it.\n");
    run.finish();
    return 0;
}
