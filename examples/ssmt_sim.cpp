/**
 * @file
 * ssmt_sim: command-line driver for the simulator — run any suite
 * workload under any machine mode with the main mechanism knobs
 * exposed. The fifth example doubles as the tool a downstream user
 * would actually script against.
 *
 *   ./ssmt_sim --list
 *   ./ssmt_sim --workload go --mode microthread --pruning
 *   ./ssmt_sim --workload mcf_2k --mode microthread-no-predictions \
 *              --report
 *   ./ssmt_sim --workload li --profile-hints /tmp/li.hints
 *   ./ssmt_sim --workload li --mode microthread \
 *              --hints /tmp/li.hints --throttle
 *   ./ssmt_sim --suite --mode microthread --jobs 8
 */

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <string>

#include "cli_common.hh"
#include "sim/batch_runner.hh"
#include "sim/path_profiler.hh"
#include "sim/sim_error.hh"
#include "sim/sim_runner.hh"
#include "workloads/workloads.hh"

using namespace ssmt;

namespace
{

const char kUsage[] =
    "usage: ssmt_sim [options]\n"
    "  --list                 list suite workloads and exit\n"
    "  --list-workloads       print workload names only and exit\n"
    "  --workload NAME        workload to run (default: go)\n"
    "  --suite                run every suite workload under the\n"
    "                         chosen config, in parallel\n"
    "  --jobs N|auto          worker threads for --suite\n"
    "                         (default: SSMT_JOBS, then all cores)\n"
    "  --mode MODE            baseline | microthread |\n"
    "                         microthread-no-predictions |\n"
    "                         oracle-difficult-path |\n"
    "                         oracle-all-branches\n"
    "  --n N                  path depth (default 10)\n"
    "  --threshold T          difficulty threshold (default .10)\n"
    "  --pruning              enable Vp/Ap pruning\n"
    "  --throttle             enable the usefulness throttle\n"
    "  --scale K              workload scale factor (default 1)\n"
    "  --seed S               workload data seed (decimal)\n"
    "  --hints FILE           load difficult-path hints\n"
    "  --profile-hints FILE   profile the workload, write hints, exit\n"
    "  --config               print the machine model and exit\n"
    "  --report               print the full stats report\n";

int
run(int argc, char **argv)
{
    cli::ArgParser args(argc, argv, kUsage,
                        {{"--list"},
                         {"--workload", nullptr, true},
                         {"--suite"},
                         {"--jobs", nullptr, true},
                         {"--mode", nullptr, true},
                         {"--n", nullptr, true},
                         {"--threshold", nullptr, true},
                         {"--pruning"},
                         {"--throttle"},
                         {"--scale", nullptr, true},
                         {"--seed", nullptr, true},
                         {"--hints", nullptr, true},
                         {"--profile-hints", nullptr, true},
                         {"--config"},
                         {"--report"}});
    if (!args.positionals().empty())
        args.fail("unexpected argument '" + args.positionals()[0] +
                  "'");
    if (args.has("--list")) {
        for (const auto &info : workloads::allWorkloads())
            std::printf("%-12s %s\n", info.name.c_str(),
                        info.description.c_str());
        return 0;
    }

    std::string workload = args.str("--workload", "go");
    std::string hints_file = args.str("--hints");
    std::string profile_file = args.str("--profile-hints");
    bool report = args.has("--report");
    unsigned jobs = cli::jobsFlag(args);

    sim::MachineConfig cfg;
    if (args.has("--mode")) {
        std::string name = args.str("--mode");
        if (!sim::parseMode(name, &cfg.mode))
            args.fail("unknown mode '" + name + "'");
    }
    // Values past INT_MAX saturate, so validate() rejects them
    // instead of seeing a wrapped depth.
    cfg.pathN = static_cast<int>(std::min<uint64_t>(
        args.u64("--n", static_cast<uint64_t>(cfg.pathN)), INT_MAX));
    cfg.difficultyThreshold =
        args.dbl("--threshold", cfg.difficultyThreshold);
    cfg.builder.pruningEnabled = args.has("--pruning");
    cfg.throttleEnabled = args.has("--throttle");

    workloads::WorkloadParams params;
    params.scale = args.u64("--scale", params.scale);
    if (params.scale == 0)
        args.fail("--scale must be >= 1");
    params.seed = args.u64("--seed", params.seed);

    if (args.has("--config")) {
        std::printf("%s", cfg.toString().c_str());
        return 0;
    }

    if (args.has("--suite")) {
        // One BatchJob per suite workload; results come back in
        // workload order regardless of the worker count.
        sim::BatchRunner runner(jobs);
        std::vector<sim::BatchJob> batch;
        for (const auto &info : workloads::allWorkloads())
            batch.push_back({info.name, info.make(params), cfg});
        auto start = std::chrono::steady_clock::now();
        std::vector<sim::BatchResult> results = runner.run(batch);
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();

        for (size_t i = 0; i < batch.size(); i++) {
            const sim::Stats &stats = results[i].stats;
            std::printf("%-12s %-12s IPC %.4f over %9llu insts / "
                        "%9llu cycles, used mispredict %.4f "
                        "(%.2fs)\n",
                        batch[i].name.c_str(),
                        sim::modeName(cfg.mode), stats.ipc(),
                        static_cast<unsigned long long>(
                            stats.retiredInsts),
                        static_cast<unsigned long long>(stats.cycles),
                        stats.usedMispredictRate(),
                        results[i].hostSeconds);
        }
        std::printf("[suite] %zu workloads, %u jobs, wall %.2fs\n",
                    batch.size(), runner.jobs(), wall);
        std::string failed =
            sim::BatchRunner::failureSummary(batch, results);
        std::fputs(failed.c_str(), stderr);
        return failed.empty() ? 0 : 1;
    }

    isa::Program prog = workloads::makeWorkload(workload, params);

    if (!profile_file.empty()) {
        sim::PathProfiler profiler({cfg.pathN});
        profiler.profile(prog, cfg.maxInsts);
        auto hints = profiler.difficultPathIds(
            cfg.pathN, cfg.difficultyThreshold);
        if (!sim::PathProfiler::saveHints(profile_file, hints)) {
            std::fprintf(stderr, "cannot write %s\n",
                         profile_file.c_str());
            return 1;
        }
        std::printf("wrote %zu difficult-path hints to %s\n",
                    hints.size(), profile_file.c_str());
        return 0;
    }

    if (!hints_file.empty()) {
        cfg.staticDifficultHints =
            sim::PathProfiler::loadHints(hints_file);
        std::printf("loaded %zu hints from %s\n",
                    cfg.staticDifficultHints.size(),
                    hints_file.c_str());
    }

    sim::Stats stats = sim::runProgramChecked(prog, cfg);
    std::printf("%s on %s: IPC %.4f over %llu insts / %llu cycles, "
                "used mispredict %.4f\n",
                workload.c_str(), sim::modeName(cfg.mode),
                stats.ipc(),
                static_cast<unsigned long long>(stats.retiredInsts),
                static_cast<unsigned long long>(stats.cycles),
                stats.usedMispredictRate());
    if (report)
        std::printf("\n%s", stats.report().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // A bad config is a usage error, not a crash; a run that ends
    // inconsistent fails like a failed suite cell.
    try {
        return run(argc, argv);
    } catch (const sim::SimError &err) {
        std::fprintf(stderr, "ssmt_sim: %s\n", err.what());
        return err.code() == sim::ErrorCode::InvariantViolation ? 1 : 2;
    }
}
