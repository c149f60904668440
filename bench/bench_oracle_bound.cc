/**
 * @file
 * Reproduces the paper's **introduction claim**: "a futuristic
 * 16-wide, deeply-pipelined machine with 95% branch prediction
 * accuracy can achieve a twofold improvement in performance solely
 * by eliminating the remaining mispredictions." This bench removes
 * every misprediction (OracleAllBranches) and reports the headroom,
 * alongside the difficult-path oracle (Figure 6's n = 10 point) to
 * show how much of the bound the paper's target set covers.
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
    bench::BenchRun run("oracle_bound", args);
    auto results =
        run.grid(suite, {{"baseline", {}},
                         {"oracle-all", {"mode=oracle-all-branches"}},
                         {"oracle-paths", {"mode=oracle-difficult-path"}}});

    std::printf("Perfect-prediction bound (paper introduction) vs "
                "the difficult-path oracle\n\n");
    std::printf("%-12s %8s %8s | %9s %9s %9s\n", "bench", "base IPC",
                "hw acc%", "all-perf", "dp-oracle", "captured");
    bench::hr(72);

    std::vector<double> bound, dp;
    for (size_t w = 0; w < suite.size(); w++) {
        const sim::Stats &base = results[w][0].stats;
        double s_all = sim::speedup(results[w][1].stats, base);
        double s_dp = sim::speedup(results[w][2].stats, base);
        bound.push_back(s_all);
        dp.push_back(s_dp);
        double captured =
            s_all > 1.0 ? (s_dp - 1.0) / (s_all - 1.0) : 1.0;
        std::printf("%-12s %8.3f %8.2f | %8.3fx %8.3fx %8.1f%%\n",
                    suite[w].name.c_str(), base.ipc(),
                    100 * (1.0 - base.hwMispredictRate()), s_all,
                    s_dp, 100 * captured);
    }
    bench::hr(72);
    std::printf("%-12s %8s %8s | %8.3fx %8.3fx   (arith mean; paper "
                "intro: ~2x bound)\n",
                "Average", "", "", sim::mean(bound), sim::mean(dp));
    run.finish();
    return 0;
}
