/**
 * @file
 * Reproduces **Figure 6**: potential IPC speed-up from *perfectly*
 * predicting the terminating branches of promoted difficult paths,
 * for n = {4, 10, 16}, with the realistic 8K-entry Path Cache,
 * training interval 32, T = .10, and an 8K-entry MicroRAM bounding
 * concurrent promotions — exactly the paper's Section 5.2 setup.
 */

#include <cstdio>

#include "bench_util.hh"
#include "sim/report.hh"

using namespace ssmt;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    auto suite = bench::benchSuite(args.quick);
    bench::BenchRun run("fig6_potential", args);

    std::vector<sim::CampaignVariant> variants = {{"baseline", {}}};
    for (int n : {4, 10, 16}) {
        variants.push_back({"oracle-paths-n" + std::to_string(n),
                            {"mode=oracle-difficult-path",
                             "pathN=" + std::to_string(n)}});
    }
    auto results = run.grid(suite, variants);

    std::printf("Figure 6: potential speed-up from perfect prediction "
                "of difficult paths\n(8K-entry Path Cache, training "
                "interval 32, T = .10)\n\n");
    std::printf("%-12s %8s | %7s %7s %7s   speedup bars (#=5%%)\n",
                "bench", "base IPC", "n=4", "n=10", "n=16");
    bench::hr(100);

    std::vector<double> speedups[3];
    for (size_t w = 0; w < suite.size(); w++) {
        const sim::Stats &base = results[w][0].stats;
        double speedup_n[3];
        for (int i = 0; i < 3; i++) {
            speedup_n[i] =
                sim::speedup(results[w][1 + i].stats, base);
            speedups[i].push_back(speedup_n[i]);
        }
        std::printf("%-12s %8.3f | %7.3f %7.3f %7.3f   %s\n",
                    suite[w].name.c_str(), base.ipc(), speedup_n[0],
                    speedup_n[1], speedup_n[2],
                    sim::asciiBar(speedup_n[1] - 1.0, 0.05, 30)
                        .c_str());
    }
    bench::hr(100);
    std::printf("%-12s %8s | %7.3f %7.3f %7.3f   (arithmetic mean)\n",
                "Average", "", sim::mean(speedups[0]),
                sim::mean(speedups[1]), sim::mean(speedups[2]));
    std::printf("%-12s %8s | %7.3f %7.3f %7.3f   (geometric mean)\n",
                "", "", sim::geomean(speedups[0]),
                sim::geomean(speedups[1]), sim::geomean(speedups[2]));
    std::printf("\nPaper shape: sizeable potential that generally "
                "grows with n, well short of\nperfect branch "
                "prediction because the realistic Path Cache cannot "
                "track the\nsheer number of difficult paths "
                "(Section 5.2).\n");
    run.finish();
    return 0;
}
