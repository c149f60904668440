/**
 * @file
 * ssmt_verify_golden: run the verify-golden campaign
 * (sim::verifyGoldenSpec) through sim::runCampaign and check it with
 * sim::checkVerifyGolden. Each workload's golden cell, the
 * full-mechanism microthread run, must match the committed
 * golden/<workload>.json counter for counter (or the allowlist), and
 * every other cell of the workload — baseline, both oracles and,
 * with --faults, one cell per injected fault site — must commit the
 * same instruction stream. The mode relations the paper implies
 * must hold, and every fault site must inject at least one fault.
 *
 * Invariant checking rides along: every cell passes the StatsChecker
 * and the structural checks, or it fails. The campaign runs in a
 * fresh temporary directory that is removed afterwards; store keys
 * do not hash the simulator code, so a kept store would serve stale
 * cells.
 *
 * Usage:
 *   ssmt_verify_golden [--golden-dir D] [--allowlist F]
 *                      [--workloads a,b,...|all] [--jobs N|auto]
 *                      [--faults] [--budget CYCLES] [--update]
 *
 * Exit status: 0 clean, 1 drift, a failed relation or any errored
 * cell (all findings are reported, not just the first), 2 bad usage,
 * an invalid campaign or missing snapshots.
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "cli_common.hh"
#include "sim/campaign.hh"
#include "sim/fsio.hh"
#include "sim/golden.hh"
#include "sim/sim_error.hh"

namespace
{

using namespace ssmt;

struct Options
{
    std::string goldenDir = "golden";
    std::string allowlistPath;      // default: <goldenDir>/ALLOWLIST
    std::vector<std::string> workloads;
    unsigned jobs = 0;
    bool update = false;
    bool faults = false;
    uint64_t budget = 0;
};

const char kUsage[] =
    "usage: ssmt_verify_golden [--golden-dir D] [--allowlist F]\n"
    "          [--workloads a,b,...|all] [--jobs N|auto] [--faults]\n"
    "          [--budget CYCLES] [--update] [--list-workloads]\n";

Options
parseOptions(int argc, char **argv)
{
    cli::ArgParser args(
        argc, argv, kUsage,
        {{"--golden-dir", nullptr, true},
         {"--allowlist", nullptr, true},
         {"--workloads", nullptr, true},
         {"--jobs", nullptr, true},
         {"--update"},
         {"--faults"},
         {"--budget", nullptr, true}});
    if (!args.positionals().empty())
        args.fail("unexpected argument '" + args.positionals()[0] +
                  "'");
    Options opt;
    opt.goldenDir = args.str("--golden-dir", opt.goldenDir);
    opt.allowlistPath = args.str("--allowlist",
                                 opt.goldenDir + "/ALLOWLIST");
    opt.workloads = cli::expandWorkloadList(args.str("--workloads", "all"));
    opt.jobs = cli::jobsFlag(args);
    opt.update = args.has("--update");
    opt.faults = args.has("--faults");
    opt.budget = args.u64("--budget");
    return opt;
}

/** Run @p spec in a fresh temporary directory, removed afterwards. */
sim::CampaignOutcome
runFresh(const sim::CampaignSpec &spec, unsigned jobs)
{
    std::string dir = sim::makeTempDir("ssmt-verify-golden");
    if (dir.empty())
        throw sim::SimError(sim::ErrorCode::IoError, "verify-golden",
                            "cannot create a temporary directory");
    sim::CampaignOptions opts;
    opts.jobs = jobs;
    try {
        sim::CampaignOutcome outcome = sim::runCampaign(spec, dir, opts);
        std::filesystem::remove_all(dir);
        return outcome;
    } catch (...) {
        std::filesystem::remove_all(dir);
        throw;
    }
}

int
writeGoldens(const Options &opt, const sim::CampaignOutcome &outcome)
{
    for (size_t i = 0; i < outcome.cells.size(); i++) {
        const std::string &workload = outcome.cells[i].workload;
        std::string path = sim::writeGoldenFile(
            opt.goldenDir, {workload, sim::kGoldenConfigName,
                            outcome.results[i].stats});
        if (path.empty()) {
            std::fprintf(stderr,
                         "cannot write golden snapshot for %s under "
                         "%s\n",
                         workload.c_str(), opt.goldenDir.c_str());
            return 2;
        }
        std::printf("updated %s\n", path.c_str());
    }
    std::printf("regenerated %zu golden snapshots (config %s)\n",
                outcome.cells.size(), sim::kGoldenConfigName);
    return 0;
}

int
verify(const Options &opt)
{
    sim::CampaignSpec spec =
        sim::verifyGoldenSpec(opt.workloads, opt.faults);
    spec.cycleBudget = opt.budget;
    // Regeneration needs only the golden cells, the first variant.
    if (opt.update)
        spec.variants.resize(1);
    sim::CampaignOutcome outcome = runFresh(spec, opt.jobs);
    if (!outcome.completed || outcome.failed > 0) {
        std::fputs(outcome.failureSummary.c_str(), stderr);
        std::fprintf(stderr,
                     "[verify-golden] FAILED: %zu of %zu cells errored "
                     "before any counter could be compared\n",
                     outcome.failed, outcome.cells.size());
        return 1;
    }
    if (opt.update)
        return writeGoldens(opt, outcome);

    sim::VerifyReport report = sim::checkVerifyGolden(
        outcome, opt.goldenDir,
        sim::DriftAllowlist::load(opt.allowlistPath));
    std::fputs(report.log.c_str(), stderr);
    for (const auto &[site, injected] : report.injected)
        std::fprintf(stderr,
                     "[verify-golden] fault site %-18s %llu injected "
                     "over %zu workload%s\n",
                     site.c_str(),
                     static_cast<unsigned long long>(injected),
                     spec.workloads.size(),
                     spec.workloads.size() == 1 ? "" : "s");
    std::printf(
        "[verify-golden] %zu workloads, %zu cells, config %s: %d "
        "drifted counter%s (%d allowlisted), %d missing snapshot%s, "
        "%d failed relation%s\n",
        spec.workloads.size(), outcome.cells.size(),
        sim::kGoldenConfigName, report.drifted,
        report.drifted == 1 ? "" : "s", report.allowed, report.missing,
        report.missing == 1 ? "" : "s", report.failedRelations,
        report.failedRelations == 1 ? "" : "s");
    return report.exitStatus();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    try {
        return verify(opt);
    } catch (const ssmt::sim::SimError &err) {
        std::fprintf(stderr, "ssmt_verify_golden: %s\n", err.what());
        return 2;
    }
}
