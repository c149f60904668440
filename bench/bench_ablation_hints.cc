/**
 * @file
 * Ablation: the compile-time variant (profile-guided difficult-path
 * hints) and the Section 5.3 usefulness throttle.
 *
 * Hints sidestep the Path Cache training interval, which is the
 * dominant ramp cost in short runs — the paper notes compile-time
 * identification as the complementary approach (Section 4 intro and
 * future work). The throttle suppresses routines whose spawns never
 * deliver a timely prediction.
 */

#include <cstdio>

#include "bench_util.hh"
#include "sim/path_profiler.hh"

using namespace ssmt;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    auto suite = bench::suiteFromNames(
        args.quick ? std::vector<std::string>{"comp", "go"}
                   : std::vector<std::string>{"comp", "go", "perl",
                                              "crafty_2k",
                                              "parser_2k", "twolf_2k",
                                              "li"});
    bench::BenchRun run("ablation_hints", args);
    sim::BatchRunner runner(args.jobs);

    // Phase 1: profile every workload concurrently — the hinted
    // configs below depend on each workload's own difficult set, so
    // this cannot be expressed as a shared-variant matrix.
    std::vector<std::vector<core::PathId>> hints(suite.size());
    runner.forEach(suite.size(), [&](size_t w) {
        sim::PathProfiler profiler({10});
        profiler.profile(suite[w].make({}), 20'000'000);
        hints[w] = profiler.difficultPathIds(10, 0.10);
    });

    // Phase 2: four runs per workload (baseline / dynamic / hinted /
    // hinted+throttle), all cells across the pool.
    std::vector<std::vector<sim::Stats>> results(
        suite.size(), std::vector<sim::Stats>(4));
    runner.forEach(suite.size() * 4, [&](size_t cell) {
        size_t w = cell / 4;
        size_t v = cell % 4;
        sim::MachineConfig cfg;
        if (v >= 1)
            cfg.mode = sim::Mode::Microthread;
        if (v >= 2)
            cfg.staticDifficultHints = hints[w];
        if (v == 3)
            cfg.throttleEnabled = true;
        results[w][v] = sim::runProgram(suite[w].make({}), cfg);
    });

    std::printf("Ablation: dynamic vs profile-hinted promotion, and "
                "the usefulness throttle\n(n = 10, T = .10)\n\n");
    std::printf("%-12s | %8s %8s %8s | %9s %9s\n", "bench", "dynamic",
                "hinted", "hint+thr", "routines", "routines(h)");
    bench::hr(76);

    for (size_t w = 0; w < suite.size(); w++) {
        const sim::Stats &base = results[w][0];
        const sim::Stats &dynamic = results[w][1];
        const sim::Stats &hinted = results[w][2];
        const sim::Stats &both = results[w][3];
        std::printf("%-12s | %8.3f %8.3f %8.3f | %9llu %9llu\n",
                    suite[w].name.c_str(), sim::speedup(dynamic, base),
                    sim::speedup(hinted, base),
                    sim::speedup(both, base),
                    static_cast<unsigned long long>(
                        dynamic.promotionsCompleted),
                    static_cast<unsigned long long>(
                        hinted.promotionsCompleted));
    }
    std::printf("\nExpected shape: hints ramp more routines in short "
                "runs and usually match or\nbeat dynamic "
                "identification; the throttle trims spawn traffic "
                "without giving\nup the delivered predictions.\n");
    run.finish();
    return 0;
}
