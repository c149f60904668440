/**
 * @file
 * Domain scenario: interpreters. The paper's intro motivates
 * attacking mispredictions that large hardware predictors cannot
 * learn; bytecode interpreters are a canonical source — a single
 * dispatch site and data-dependent opcode tests reached along many
 * expression-shaped paths.
 *
 * This example runs the `li` proxy (a stack bytecode interpreter)
 * across all four machine modes and shows where the cycles go.
 *
 *   ./interpreter_speedup
 */

#include <cstdio>

#include "sim/sim_runner.hh"
#include "workloads/workloads.hh"

using namespace ssmt;

int
main()
{
    isa::Program prog = workloads::makeWorkload("li");
    std::printf("workload: li (stack bytecode interpreter proxy, "
                "%llu static insts)\n\n",
                static_cast<unsigned long long>(prog.size()));

    struct Row
    {
        const char *label;
        sim::Mode mode;
        bool pruning;
    };
    const Row rows[] = {
        {"baseline", sim::Mode::Baseline, false},
        {"overhead only", sim::Mode::MicrothreadNoPredictions, false},
        {"microthreads", sim::Mode::Microthread, false},
        {"microthreads + pruning", sim::Mode::Microthread, true},
        {"oracle difficult paths", sim::Mode::OracleDifficultPath,
         false},
    };

    sim::Stats base;
    std::printf("%-24s %8s %9s %10s %10s\n", "mode", "IPC",
                "speed-up", "mispredict", "bubbles");
    for (const Row &row : rows) {
        sim::MachineConfig cfg;
        cfg.mode = row.mode;
        cfg.builder.pruningEnabled = row.pruning;
        sim::Stats stats = sim::runProgramChecked(prog, cfg);
        if (row.mode == sim::Mode::Baseline)
            base = stats;
        std::printf("%-24s %8.3f %8.3fx %9.2f%% %10llu\n", row.label,
                    stats.ipc(), sim::speedup(stats, base),
                    100 * stats.usedMispredictRate(),
                    static_cast<unsigned long long>(
                        stats.fetchBubbleCycles));
    }

    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cfg.builder.pruningEnabled = true;
    sim::Stats mt = sim::runProgramChecked(prog, cfg);
    std::printf("\nmicrothread activity (with pruning):\n");
    std::printf("  spawn attempts %llu, spawned %llu, completed "
                "%llu\n",
                static_cast<unsigned long long>(mt.spawnAttempts),
                static_cast<unsigned long long>(mt.spawns),
                static_cast<unsigned long long>(
                    mt.microthreadsCompleted));
    std::printf("  predictions: %llu early, %llu late, %llu useless "
                "(%llu never reached)\n",
                static_cast<unsigned long long>(mt.predEarly),
                static_cast<unsigned long long>(mt.predLate),
                static_cast<unsigned long long>(mt.predUseless),
                static_cast<unsigned long long>(mt.predNeverReached));
    std::printf("  microthread accuracy: %llu correct / %llu "
                "wrong\n",
                static_cast<unsigned long long>(mt.microPredCorrect),
                static_cast<unsigned long long>(mt.microPredWrong));
    std::printf("\nInterpreters at this scale stress the Path Cache "
                "(every expression shape\nis a distinct path); the "
                "paper's billion-instruction runs give each path\n"
                "far more recurrences. See EXPERIMENTS.md for the "
                "scale discussion.\n");
    return 0;
}
