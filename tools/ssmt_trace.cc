/**
 * @file
 * ssmt_trace: run registered workloads with the observability layer
 * switched on and write the captured artifacts —
 *
 *   <out-dir>/<workload>.series.json   interval time-series +
 *                                      occupancy histograms
 *                                      (schema ssmt-series-v1)
 *   <out-dir>/<workload>.trace.json    Chrome trace-event JSON;
 *                                      load via Perfetto
 *                                      (ui.perfetto.dev) or
 *                                      chrome://tracing
 *   <out-dir>/<workload>.trace.jsonl   with --jsonl: every pipeline
 *                                      event streamed as one JSON
 *                                      line (unbounded capture)
 *
 * Each workload runs through sim::runProgramChecked on
 * BatchRunner::forEach, and the files come from its RunArtifacts:
 * no batch result, job document or campaign carries a series or a
 * trace. Both artifacts are deterministic: identical (workload,
 * config, scale, seed) runs produce byte-identical files regardless
 * of --jobs, because each simulation is an isolated single-threaded
 * core and sampling happens at fixed cycle multiples.
 *
 * Usage:
 *   ssmt_trace --workload a[,b,...]|all [--mode M]
 *              [--sample-interval N] [--trace-capacity N]
 *              [--scale N] [--seed S] [--jobs N|auto] [--out-dir D]
 *              [--jsonl]
 *
 * D is created when missing. Exit status: 0 clean, 1 simulation or
 * I/O failure (an --out-dir that cannot be created is found before
 * anything runs), 2 bad usage or an invalid config.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "cli_common.hh"
#include "cpu/trace.hh"
#include "sim/batch_runner.hh"
#include "sim/fsio.hh"
#include "sim/golden.hh"
#include "sim/metrics.hh"
#include "sim/sim_error.hh"
#include "sim/sim_runner.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

struct Options
{
    std::vector<std::string> workloads;
    sim::Mode mode = sim::Mode::Microthread;
    bpred::PredictorKind predictor = bpred::PredictorKind::Hybrid;
    uint64_t sampleInterval = 1000;
    size_t traceCapacity = 65536;
    uint64_t scale = 1;
    uint64_t seed = 0x5eed;
    unsigned jobs = 0;
    std::string outDir = ".";
    bool jsonl = false;
};

/** One workload's run: its machine, and what it captured or why it
 *  failed. */
struct Run
{
    std::string name;
    isa::Program program;
    sim::MachineConfig config;
    sim::RunArtifacts artifacts;
    std::string error;      ///< empty on success
};

const char kUsage[] =
    "usage: ssmt_trace --workload a[,b,...]|all [--mode M]\n"
    "          [--predictor hybrid|tage|perceptron]\n"
    "          [--sample-interval N] [--trace-capacity N]\n"
    "          [--scale N] [--seed S] [--jobs N|auto] [--out-dir D]\n"
    "          [--jsonl] [--list-workloads]\n"
    "modes: baseline, oracle-difficult-path, microthread,\n"
    "       microthread-no-predictions, oracle-all-branches\n";

Options
parseOptions(int argc, char **argv)
{
    cli::ArgParser args(argc, argv, kUsage,
                        {{"--workload", "--workloads", true},
                         {"--mode", nullptr, true},
                         {"--predictor", nullptr, true},
                         {"--sample-interval", nullptr, true},
                         {"--trace-capacity", nullptr, true},
                         {"--scale", nullptr, true},
                         {"--seed", nullptr, true},
                         {"--jobs", nullptr, true},
                         {"--out-dir", nullptr, true},
                         {"--jsonl"}});
    if (!args.positionals().empty())
        args.fail("unexpected argument '" + args.positionals()[0] +
                  "'");
    Options opt;
    if (args.has("--mode")) {
        std::string name = args.str("--mode");
        if (!sim::parseMode(name, &opt.mode))
            args.fail("unknown mode '" + name + "'");
    }
    opt.predictor = cli::predictorFlag(args);
    opt.sampleInterval =
        args.u64("--sample-interval", opt.sampleInterval);
    opt.traceCapacity = static_cast<size_t>(
        args.u64("--trace-capacity", opt.traceCapacity));
    opt.scale = args.u64("--scale", opt.scale);
    if (opt.scale == 0)
        args.fail("--scale must be >= 1");
    opt.seed = args.u64("--seed", opt.seed);
    opt.jobs = cli::jobsFlag(args);
    opt.outDir = args.str("--out-dir", opt.outDir);
    opt.jsonl = args.has("--jsonl");
    if (!args.has("--workload"))
        args.fail("--workload is required");
    opt.workloads =
        cli::expandWorkloadList(args.str("--workload"));
    if (opt.workloads.empty())
        args.fail("--workload is required");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);

    std::vector<workloads::WorkloadInfo> infos =
        cli::resolveWorkloads(opt.workloads, "ssmt_trace");

    // The golden machine config keeps these artifacts comparable with
    // the committed snapshots; only the observability knobs (and any
    // explicit --mode) differ.
    sim::MachineConfig cfg = sim::goldenMachineConfig();
    cfg.mode = opt.mode;
    cfg.predictor = opt.predictor;
    cfg.sampleInterval = opt.sampleInterval;
    cfg.traceCapacity = opt.traceCapacity;

    // Refuse a bad config or an unusable --out-dir once, before
    // anything simulates.
    try {
        cfg.validateOrThrow();
    } catch (const sim::SimError &err) {
        std::fprintf(stderr, "ssmt_trace: %s\n", err.what());
        return 2;
    }
    if (!sim::ensureDir(opt.outDir)) {
        std::fprintf(stderr, "ssmt_trace: cannot create --out-dir '%s'\n",
                     opt.outDir.c_str());
        return 1;
    }

    workloads::WorkloadParams params;
    params.scale = opt.scale;
    params.seed = opt.seed;

    std::vector<Run> runs;
    runs.reserve(infos.size());
    for (const workloads::WorkloadInfo &info : infos) {
        sim::MachineConfig job_cfg = cfg;
        if (opt.jsonl)
            job_cfg.tracePath = opt.outDir + "/" + info.name + ".trace.jsonl";
        runs.push_back({info.name, info.make(params), job_cfg, {}, {}});
    }

    sim::BatchRunner(opt.jobs).forEach(runs.size(), [&](size_t i) {
        Run &run = runs[i];
        try {
            sim::runProgramChecked(run.program, run.config, run.name, 0,
                                   nullptr, &run.artifacts);
        } catch (const sim::SimError &err) {
            run.error = err.what();
        }
    });

    int failures = 0;
    std::string summary;
    for (const Run &run : runs) {
        const std::string &name = run.name;
        if (!run.error.empty()) {
            std::fprintf(stderr, "%s: simulation failed: %s\n",
                         name.c_str(), run.error.c_str());
            summary += name + ": " + run.error + "\n";
            failures++;
            continue;
        }

        std::string config_name = sim::modeName(run.config.mode);
        if (opt.sampleInterval > 0) {
            std::string path =
                opt.outDir + "/" + name + ".series.json";
            if (!sim::writeFileAtomic(
                    path, sim::seriesDocumentJson(run.artifacts.series,
                                                  name, config_name))) {
                std::fprintf(stderr, "%s: cannot write %s\n",
                             name.c_str(), path.c_str());
                failures++;
                continue;
            }
            std::printf("%s: %zu samples (interval %llu) -> %s\n",
                        name.c_str(), run.artifacts.series.samples.size(),
                        static_cast<unsigned long long>(
                            run.artifacts.series.interval),
                        path.c_str());
        }
        if (opt.traceCapacity > 0) {
            std::string path =
                opt.outDir + "/" + name + ".trace.json";
            if (!sim::writeFileAtomic(
                    path, cpu::chromeTraceJson(run.artifacts.trace))) {
                std::fprintf(stderr, "%s: cannot write %s\n",
                             name.c_str(), path.c_str());
                failures++;
                continue;
            }
            std::printf("%s: %zu trace records -> %s\n", name.c_str(),
                        run.artifacts.trace.size(), path.c_str());
        }
        if (opt.jsonl) {
            std::printf("%s: JSONL stream -> %s\n", name.c_str(),
                        run.config.tracePath.c_str());
        }
    }

    if (failures) {
        std::fputs(summary.c_str(), stderr);
        return 1;
    }
    return 0;
}
