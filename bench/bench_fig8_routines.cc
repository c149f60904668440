/**
 * @file
 * Reproduces **Figure 8**: average microthread routine size and
 * average longest dependency chain (in instructions), with and
 * without pruning.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace ssmt;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    auto suite = bench::benchSuite(args.quick);
    bench::BenchRun run("fig8_routines", args);
    auto results = run.grid(
        suite,
        {{"microthread", {"mode=microthread"}},
         {"microthread+pruning", {"mode=microthread", "pruningEnabled=1"}}});

    std::printf("Figure 8: average routine size and longest "
                "dependency chain, +/- pruning\n\n");
    std::printf("%-12s | %9s %9s | %9s %9s | %8s\n", "bench",
                "size", "chain", "size(pr)", "chain(pr)", "routines");
    bench::hr(78);

    double size_np = 0, chain_np = 0, size_pr = 0, chain_pr = 0;
    int count = 0;
    for (size_t w = 0; w < suite.size(); w++) {
        const sim::Stats &np = results[w][0].stats;
        const sim::Stats &pr = results[w][1].stats;
        if (np.build.built == 0) {
            std::printf("%-12s | %9s (no routines built)\n",
                        suite[w].name.c_str(), "-");
            continue;
        }
        std::printf("%-12s | %9.2f %9.2f | %9.2f %9.2f | %8llu\n",
                    suite[w].name.c_str(), np.build.avgRoutineSize(),
                    np.build.avgLongestChain(),
                    pr.build.avgRoutineSize(),
                    pr.build.avgLongestChain(),
                    static_cast<unsigned long long>(np.build.built));
        size_np += np.build.avgRoutineSize();
        chain_np += np.build.avgLongestChain();
        size_pr += pr.build.avgRoutineSize();
        chain_pr += pr.build.avgLongestChain();
        count++;
    }
    bench::hr(78);
    if (count) {
        std::printf("%-12s | %9.2f %9.2f | %9.2f %9.2f |\n",
                    "Average", size_np / count, chain_np / count,
                    size_pr / count, chain_pr / count);
    }
    std::printf("\nPaper shape: pruning shortens routines and, above "
                "all, the critical\ndependency chains; in a few cases "
                "(e.g. compress) Ap_Inst insertion can\nlengthen the "
                "routine while still shortening the chain "
                "(Section 5.4).\n");
    run.finish();
    return 0;
}
