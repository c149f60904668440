/**
 * @file
 * ssmt_snapshot: save, fan out and verify ssmt-snapshot-v1 machine
 * checkpoints.
 *
 * Subcommands (first positional argument):
 *
 *   save    Run workloads under one mode, checkpoint each machine at
 *           --cycle N and write <out-dir>/<workload>.snapshot.json.
 *           The default mode is baseline: a warmup snapshot taken
 *           before any mechanism state exists restores into *any*
 *           mode, because the mechanism mode is deliberately excluded
 *           from the config fingerprint.
 *
 *   fanout  Restore one warmup snapshot into every non-baseline
 *           mechanism mode and run each to completion — the paper's
 *           mode comparison without re-simulating the warmup four
 *           times. Prints one result line per mode.
 *
 *   verify  The keystone property, end to end: for every workload,
 *           run straight through (checkpointing at --cycle N), then
 *           restore that checkpoint into a fresh machine and resume
 *           to completion. The two runs must agree byte-for-byte in
 *           their canonical golden serialization and their
 *           ssmt-series-v1 metrics series; with --golden-dir the
 *           straight run is additionally required to be byte-identical
 *           to the committed golden/<workload>.json snapshot. A
 *           workload that halts before cycle N is re-checkpointed at
 *           half its actual run length so short workloads still
 *           exercise the resume path.
 *
 * Usage:
 *   ssmt_snapshot save   --cycle N [--workloads a,b,...|all]
 *                        [--mode M] [--sample-interval N]
 *                        [--out-dir D] [--jobs N|auto]
 *   ssmt_snapshot fanout --snapshot FILE --workload NAME
 *                        [--sample-interval N] [--jobs N|auto]
 *   ssmt_snapshot verify --cycle N [--workloads a,b,...|all]
 *                        [--golden-dir D] [--sample-interval N]
 *                        [--jobs N|auto]
 *
 * Exit status: 0 clean, 1 verification failure or failed run, 2 bad
 * usage or unreadable input.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "cli_common.hh"
#include "sim/batch_runner.hh"
#include "sim/fsio.hh"
#include "sim/golden.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/sim_error.hh"
#include "sim/sim_runner.hh"
#include "sim/snapshot.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

const char kUsage[] =
    "usage: ssmt_snapshot save   --cycle N"
    " [--workloads a,b,...|all]\n"
    "                            [--mode M] [--sample-interval N]\n"
    "                            [--predictor hybrid|tage|perceptron]\n"
    "                            [--out-dir D] [--jobs N|auto]\n"
    "       ssmt_snapshot fanout --snapshot FILE --workload NAME\n"
    "                            [--sample-interval N] [--jobs N|auto]\n"
    "       ssmt_snapshot verify --cycle N"
    " [--workloads a,b,...|all]\n"
    "                            [--golden-dir D]"
    " [--sample-interval N]\n"
    "                            [--jobs N|auto]\n"
    "modes: baseline, oracle-difficult-path, microthread,\n"
    "       microthread-no-predictions, oracle-all-branches\n";

struct Options
{
    std::string command;
    std::vector<std::string> workloads;
    sim::Mode mode = sim::Mode::Baseline;
    bpred::PredictorKind predictor = bpred::PredictorKind::Hybrid;
    uint64_t cycle = 0;
    uint64_t sampleInterval = 0;
    unsigned jobs = 0;
    std::string outDir = ".";
    std::string goldenDir;
    std::string snapshotPath;
};

Options
parseOptions(int argc, char **argv)
{
    cli::ArgParser args(argc, argv, kUsage,
                        {{"--workloads", "--workload", true},
                         {"--mode", nullptr, true},
                         {"--predictor", nullptr, true},
                         {"--cycle", nullptr, true},
                         {"--sample-interval", nullptr, true},
                         {"--jobs", nullptr, true},
                         {"--out-dir", nullptr, true},
                         {"--golden-dir", nullptr, true},
                         {"--snapshot", nullptr, true}});
    if (args.positionals().size() != 1)
        args.fail("expected exactly one subcommand "
                  "(save, fanout or verify)");
    Options opt;
    opt.command = args.positionals()[0];
    if (opt.command != "save" && opt.command != "fanout" &&
        opt.command != "verify")
        args.fail("unknown subcommand '" + opt.command + "'");
    if (args.has("--workloads"))
        opt.workloads =
            cli::expandWorkloadList(args.str("--workloads"));
    if (args.has("--mode")) {
        std::string name = args.str("--mode");
        if (!sim::parseMode(name, &opt.mode))
            args.fail("unknown mode '" + name + "'");
    }
    opt.predictor = cli::predictorFlag(args);
    opt.cycle = args.u64("--cycle");
    opt.sampleInterval =
        args.u64("--sample-interval", opt.sampleInterval);
    opt.jobs = cli::jobsFlag(args);
    opt.outDir = args.str("--out-dir", opt.outDir);
    opt.goldenDir = args.str("--golden-dir");
    opt.snapshotPath = args.str("--snapshot");

    if (opt.command == "fanout") {
        if (opt.snapshotPath.empty())
            args.fail("fanout needs --snapshot FILE");
        if (opt.workloads.size() != 1)
            args.fail("fanout needs --workload NAME (exactly one)");
    } else {
        if (opt.cycle == 0)
            args.fail(opt.command + " needs --cycle N (N >= 1)");
        if (opt.workloads.empty())
            opt.workloads = workloads::workloadNames();
    }
    return opt;
}

/** The structural config every subcommand simulates under: the
 *  pinned golden machine, with only the mode / observability knobs
 *  (fingerprint-relevant sampleInterval included) varied. */
sim::MachineConfig
makeConfig(const Options &opt, sim::Mode mode)
{
    sim::MachineConfig cfg = sim::goldenMachineConfig();
    cfg.mode = mode;
    cfg.predictor = opt.predictor;
    cfg.sampleInterval = opt.sampleInterval;
    return cfg;
}

/**
 * Run @p prog straight through, checkpointing at @p cycle. When the
 * run halts before the checkpoint fires (short workload), rerun with
 * the checkpoint at half the observed run length. @return the cycle
 * the snapshot was actually captured at (0 = even the fallback could
 * not produce one).
 */
uint64_t
runWithSnapshot(const isa::Program &prog,
                const sim::MachineConfig &cfg,
                const std::string &label, uint64_t cycle,
                sim::Stats &stats, sim::RunArtifacts &artifacts)
{
    stats = sim::runProgramChecked(prog, cfg, label, 0, nullptr,
                                   &artifacts, cycle);
    if (!artifacts.snapshot.empty())
        return artifacts.snapshotCycle;
    uint64_t fallback = stats.cycles / 2;
    if (fallback == 0)
        return 0;
    stats = sim::runProgramChecked(prog, cfg, label, 0, nullptr,
                                   &artifacts, fallback);
    return artifacts.snapshot.empty() ? 0 : artifacts.snapshotCycle;
}

int
runSave(const Options &opt)
{
    std::vector<workloads::WorkloadInfo> suite =
        cli::resolveWorkloads(opt.workloads, "ssmt_snapshot");
    sim::MachineConfig cfg = makeConfig(opt, opt.mode);

    std::vector<std::string> errors(suite.size());
    sim::BatchRunner runner(opt.jobs);
    runner.forEach(suite.size(), [&](size_t i) {
        const std::string &name = suite[i].name;
        try {
            sim::Stats stats;
            sim::RunArtifacts artifacts;
            uint64_t at = runWithSnapshot(suite[i].make({}), cfg,
                                          name, opt.cycle, stats,
                                          artifacts);
            if (at == 0) {
                errors[i] = "run too short to checkpoint";
                return;
            }
            std::string path =
                opt.outDir + "/" + name + ".snapshot.json";
            if (!sim::writeFileAtomic(path, artifacts.snapshot)) {
                errors[i] = "cannot write " + path;
                return;
            }
            std::printf("%s: snapshot at cycle %llu (%zu bytes, "
                        "mode %s) -> %s\n",
                        name.c_str(),
                        static_cast<unsigned long long>(at),
                        artifacts.snapshot.size(),
                        sim::modeName(cfg.mode), path.c_str());
        } catch (const std::exception &err) {
            errors[i] = err.what();
        }
    });

    int failures = 0;
    for (size_t i = 0; i < suite.size(); i++) {
        if (errors[i].empty())
            continue;
        std::fprintf(stderr, "%s: %s\n", suite[i].name.c_str(),
                     errors[i].c_str());
        failures++;
    }
    return failures ? 1 : 0;
}

int
runFanout(const Options &opt)
{
    std::string snapshot = sim::readFileOrEmpty(opt.snapshotPath);
    if (snapshot.empty()) {
        std::fprintf(stderr, "cannot read %s\n",
                     opt.snapshotPath.c_str());
        return 2;
    }
    std::vector<workloads::WorkloadInfo> suite =
        cli::resolveWorkloads(opt.workloads, "ssmt_snapshot");
    isa::Program prog = suite[0].make({});

    const sim::Mode fan[] = {sim::Mode::OracleDifficultPath,
                             sim::Mode::Microthread,
                             sim::Mode::MicrothreadNoPredictions,
                             sim::Mode::OracleAllBranches};
    const size_t n = sizeof(fan) / sizeof(fan[0]);
    std::vector<sim::Stats> stats(n);
    std::vector<std::string> errors(n);
    sim::BatchRunner runner(opt.jobs);
    runner.forEach(n, [&](size_t i) {
        try {
            sim::MachineConfig cfg = makeConfig(opt, fan[i]);
            std::string label = suite[0].name + "/" +
                                sim::modeName(fan[i]);
            stats[i] = sim::runProgramChecked(
                prog, cfg, label, 0, nullptr, nullptr, 0, &snapshot);
        } catch (const std::exception &err) {
            errors[i] = err.what();
        }
    });

    std::printf("fanout %s from %s (captured at cycle %llu)\n",
                suite[0].name.c_str(), opt.snapshotPath.c_str(),
                static_cast<unsigned long long>(
                    sim::snapshotCycle(snapshot)));
    int failures = 0;
    for (size_t i = 0; i < n; i++) {
        if (!errors[i].empty()) {
            std::fprintf(stderr, "%s: %s\n", sim::modeName(fan[i]),
                         errors[i].c_str());
            failures++;
            continue;
        }
        std::printf("  %-28s cycles %-10llu retired %-10llu "
                    "usedMispredicts %llu\n",
                    sim::modeName(fan[i]),
                    static_cast<unsigned long long>(stats[i].cycles),
                    static_cast<unsigned long long>(
                        stats[i].retiredInsts),
                    static_cast<unsigned long long>(
                        stats[i].usedMispredicts));
    }
    return failures ? 1 : 0;
}

int
runVerify(const Options &opt)
{
    std::vector<workloads::WorkloadInfo> suite =
        cli::resolveWorkloads(opt.workloads, "ssmt_snapshot");
    // Verification runs under the pinned golden config so the
    // straight-through run can be held against the committed
    // golden/ snapshots too.
    sim::MachineConfig cfg =
        makeConfig(opt, sim::goldenMachineConfig().mode);

    std::vector<std::string> errors(suite.size());
    std::vector<std::string> notes(suite.size());
    sim::BatchRunner runner(opt.jobs);
    runner.forEach(suite.size(), [&](size_t i) {
        const std::string &name = suite[i].name;
        try {
            isa::Program prog = suite[i].make({});

            sim::Stats straight;
            sim::RunArtifacts straightArt;
            uint64_t at =
                runWithSnapshot(prog, cfg, name, opt.cycle, straight,
                                straightArt);
            if (at == 0) {
                errors[i] = "run too short to checkpoint";
                return;
            }

            sim::RunArtifacts resumedArt;
            sim::Stats resumed = sim::runProgramChecked(
                prog, cfg, name + "/resumed", 0, nullptr,
                &resumedArt, 0, &straightArt.snapshot);

            std::string straightGolden = sim::goldenJson(
                {name, sim::kGoldenConfigName, straight});
            std::string resumedGolden = sim::goldenJson(
                {name, sim::kGoldenConfigName, resumed});
            if (straightGolden != resumedGolden) {
                errors[i] = "resumed golden stats differ from "
                            "straight-through run";
                return;
            }
            if (sim::seriesJson(straightArt.series) !=
                sim::seriesJson(resumedArt.series)) {
                errors[i] = "resumed metrics series differs from "
                            "straight-through run";
                return;
            }
            if (!opt.goldenDir.empty()) {
                std::string path = opt.goldenDir + "/" +
                                   sim::goldenFileName(name);
                std::string want = sim::readFileOrEmpty(path);
                if (want.empty()) {
                    errors[i] = "cannot read " + path;
                    return;
                }
                if (straightGolden != want) {
                    errors[i] = "straight-through golden stats "
                                "differ from committed " + path;
                    return;
                }
            }
            notes[i] =
                "verified at cycle " + std::to_string(at) + " (" +
                std::to_string(straightArt.snapshot.size()) +
                "-byte snapshot, golden + series byte-identical" +
                (opt.goldenDir.empty() ? ")"
                                       : ", matches committed)");
        } catch (const std::exception &err) {
            errors[i] = err.what();
        }
    });

    int failures = 0;
    for (size_t i = 0; i < suite.size(); i++) {
        if (!errors[i].empty()) {
            std::fprintf(stderr, "VERIFY FAIL %s: %s\n",
                         suite[i].name.c_str(), errors[i].c_str());
            failures++;
        } else {
            std::printf("%s: %s\n", suite[i].name.c_str(),
                        notes[i].c_str());
        }
    }
    std::printf("[snapshot-verify] %zu workloads, %d failure%s\n",
                suite.size(), failures, failures == 1 ? "" : "s");
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Library panics must surface as catchable exceptions so one bad
    // cell reports cleanly instead of aborting the whole sweep.
    ssmt::detail::setFatalThrows(true);
    Options opt = parseOptions(argc, argv);
    try {
        if (opt.command == "save")
            return runSave(opt);
        if (opt.command == "fanout")
            return runFanout(opt);
        return runVerify(opt);
    } catch (const sim::SimError &err) {
        std::fprintf(stderr, "ssmt_snapshot: %s\n", err.what());
        return 2;
    } catch (const std::exception &err) {
        std::fprintf(stderr, "ssmt_snapshot: %s\n", err.what());
        return 2;
    }
}
