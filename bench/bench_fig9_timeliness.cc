/**
 * @file
 * Reproduces **Figure 9**: microthread prediction arrival times
 * broken into early (before the branch is fetched), late (after
 * fetch, before resolution) and useless (after resolution), with
 * and without pruning. Predictions for branch instances never
 * reached are excluded, as in the paper's caption.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace ssmt;

namespace
{

struct Split
{
    double early, late, useless;
};

Split
splitOf(const sim::Stats &stats)
{
    double total = static_cast<double>(stats.predEarly +
                                       stats.predLate +
                                       stats.predUseless);
    if (total == 0)
        return {0, 0, 0};
    return {stats.predEarly / total, stats.predLate / total,
            stats.predUseless / total};
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    auto suite = bench::benchSuite(args.quick);
    bench::BenchRun run("fig9_timeliness", args);
    auto results = run.grid(
        suite,
        {{"microthread", {"mode=microthread"}},
         {"microthread+pruning", {"mode=microthread", "pruningEnabled=1"}}});

    std::printf("Figure 9: prediction timeliness, left = no pruning, "
                "right = pruning\n(fractions of early / late / "
                "useless; never-reached excluded)\n\n");
    std::printf("%-12s | %6s %6s %6s | %6s %6s %6s\n", "bench",
                "early", "late", "useless", "early", "late",
                "useless");
    bench::hr(66);

    Split sum_np{0, 0, 0}, sum_pr{0, 0, 0};
    int count = 0;
    for (size_t w = 0; w < suite.size(); w++) {
        const sim::Stats &np = results[w][0].stats;
        const sim::Stats &pr = results[w][1].stats;
        uint64_t np_total =
            np.predEarly + np.predLate + np.predUseless;
        if (np_total < 10) {
            std::printf("%-12s | (too few predictions)\n",
                        suite[w].name.c_str());
            continue;
        }
        Split a = splitOf(np);
        Split b = splitOf(pr);
        std::printf("%-12s | %5.1f%% %5.1f%% %5.1f%% | %5.1f%% "
                    "%5.1f%% %5.1f%%\n",
                    suite[w].name.c_str(), 100 * a.early,
                    100 * a.late, 100 * a.useless, 100 * b.early,
                    100 * b.late, 100 * b.useless);
        sum_np.early += a.early;
        sum_np.late += a.late;
        sum_np.useless += a.useless;
        sum_pr.early += b.early;
        sum_pr.late += b.late;
        sum_pr.useless += b.useless;
        count++;
    }
    bench::hr(66);
    if (count) {
        std::printf("%-12s | %5.1f%% %5.1f%% %5.1f%% | %5.1f%% "
                    "%5.1f%% %5.1f%%\n",
                    "Average", 100 * sum_np.early / count,
                    100 * sum_np.late / count,
                    100 * sum_np.useless / count,
                    100 * sum_pr.early / count,
                    100 * sum_pr.late / count,
                    100 * sum_pr.useless / count);
    }
    std::printf("\nPaper shape: pruning increases early and useful "
                "(early+late) predictions,\nyet the majority still "
                "arrive after the branch is fetched (Section 5.4).\n");
    run.finish();
    return 0;
}
