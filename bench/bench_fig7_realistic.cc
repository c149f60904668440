/**
 * @file
 * Reproduces **Figure 7**: realistic machine speed-up with the full
 * mechanism (n = 10, T = .10, 100-cycle build latency) — without
 * pruning, with pruning, and with microthread overhead only (no
 * predictions consumed) — plus the Section 4.3.2 abort-rate quotes.
 *
 * Run with --print-config to dump the Table 3 machine model.
 */

#include <cstdio>

#include "bench_util.hh"
#include "sim/report.hh"

using namespace ssmt;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv, {"--print-config"});
    if (args.has("--print-config")) {
        sim::MachineConfig cfg;
        cfg.mode = sim::Mode::Microthread;
        std::printf("Table 3 baseline machine model:\n%s\n",
                    cfg.toString().c_str());
        return 0;
    }

    auto suite = bench::benchSuite(args.quick);
    bench::BenchRun run("fig7_realistic", args);
    auto results = run.grid(
        suite,
        {{"baseline", {}},
         {"microthread", {"mode=microthread"}},
         {"microthread+pruning", {"mode=microthread", "pruningEnabled=1"}},
         {"overhead", {"mode=microthread-no-predictions"}}});

    std::printf("Figure 7: realistic speed-up (n = 10, T = .10, "
                "build latency 100)\n\n");
    std::printf("%-12s %8s %7s | %8s %8s %8s   no-pruning bars "
                "(#=2%%)\n",
                "bench", "base IPC", "hw mis", "noprune", "pruning",
                "overhead");
    bench::hr(100);

    std::vector<double> noprune, prune, overhead;
    double pre_abort_sum = 0, post_abort_sum = 0;
    int abort_count = 0;

    for (size_t w = 0; w < suite.size(); w++) {
        const sim::Stats &base = results[w][0].stats;
        const sim::Stats &np = results[w][1].stats;
        const sim::Stats &pr = results[w][2].stats;
        const sim::Stats &ov = results[w][3].stats;

        double s_np = sim::speedup(np, base);
        double s_pr = sim::speedup(pr, base);
        double s_ov = sim::speedup(ov, base);
        noprune.push_back(s_np);
        prune.push_back(s_pr);
        overhead.push_back(s_ov);
        if (np.spawnAttempts > 100) {
            pre_abort_sum += np.preAllocationAbortRate();
            post_abort_sum += np.postSpawnAbortRate();
            abort_count++;
        }
        std::printf("%-12s %8.3f %7.4f | %8.3f %8.3f %8.3f   %s\n",
                    suite[w].name.c_str(), base.ipc(),
                    base.hwMispredictRate(), s_np, s_pr, s_ov,
                    sim::asciiBar(s_np - 1.0, 0.02, 30).c_str());
    }
    bench::hr(100);
    std::printf("%-12s %8s %7s | %8.3f %8.3f %8.3f   (arith mean; "
                "paper: avg 8.4%%, max 42%%)\n",
                "Average", "", "", sim::mean(noprune),
                sim::mean(prune), sim::mean(overhead));
    std::printf("%-12s %8s %7s | %8.3f %8.3f %8.3f   (geo mean)\n",
                "", "", "", sim::geomean(noprune),
                sim::geomean(prune), sim::geomean(overhead));

    if (abort_count) {
        std::printf("\nSection 4.3.2 abort rates (no-pruning runs, "
                    "suite average):\n");
        std::printf("  aborted before microcontext allocation: "
                    "%5.1f%%   (paper: 67%%)\n",
                    100.0 * pre_abort_sum / abort_count);
        std::printf("  successful spawns aborted in flight:    "
                    "%5.1f%%   (paper: 66%%)\n",
                    100.0 * post_abort_sum / abort_count);
    }
    run.finish();
    return 0;
}
