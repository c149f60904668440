/**
 * @file
 * ssmt_campaign: crash-contained, resumable experiment campaigns.
 *
 * Drives sim/campaign: a workload × mode × seed grid where every
 * cell runs once and is recorded in an fsync-per-line journal the
 * moment it completes, and every successful cell is committed to a
 * content-addressed store. A campaign killed at any instant
 * (`kill -9` included) resumes with stored cells served as cache
 * hits and produces a manifest byte-identical to an uninterrupted
 * run at any --jobs. A failed cell is never stored, so running the
 * campaign again executes it again, under that run's --budget and
 * isolation limits. The manifest records only what each cell's
 * simulation computed; warnings go to stderr. With --isolate the
 * cells run in sandboxed worker processes under optional wall-clock /
 * address-space / CPU limits, so a crashing or hanging cell becomes
 * a typed error slot while every other cell still completes.
 *
 * Subcommands:
 *   run     build a spec from flags and run (or resume) it
 *   resume  re-run from the journal's pinned spec (no spec flags)
 *   status  report journal / store / manifest state
 *   gc      delete store entries the spec no longer references
 *
 * Exit status: 0 campaign complete and every cell clean, 1 any cell
 * failed or the campaign stopped early (SIGINT / --cancel-after),
 * 2 bad usage or an invalid spec.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cli_common.hh"
#include "sim/campaign.hh"
#include "sim/faultinject.hh"
#include "sim/fsio.hh"
#include "sim/sim_error.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

/** SIGINT requests a cooperative stop: in-flight cells finish and
 *  are journaled, the rest are skipped. A second SIGINT falls back
 *  to the default disposition (the journal survives kill too). */
std::atomic<bool> g_interrupted{false};

void
onSigint(int)
{
    g_interrupted.store(true, std::memory_order_relaxed);
    std::signal(SIGINT, SIG_DFL);
}

const char kUsage[] =
    "usage: ssmt_campaign <run|resume|status|gc> --dir D [options]\n"
    "\n"
    "  run     run (or resume) the campaign described by the flags\n"
    "  resume  re-run from the journal's pinned spec; spec flags are\n"
    "          rejected so the identity cannot drift\n"
    "  status  report journal / store / manifest state\n"
    "  gc      delete store entries the spec no longer references\n"
    "\n"
    "spec (run; gc accepts the same to name the live cell set):\n"
    "  --name N              campaign name (default 'campaign')\n"
    "  --workloads a,b|all   workload axis (required for run)\n"
    "  --modes m1,m2|all     mode axis (default microthread)\n"
    "  --seeds s1,s2         fault-seed axis (default 0)\n"
    "  --scale N             workload scale (default 1)\n"
    "  --max-insts N         per-cell instruction cap (a capped cell\n"
    "                        is stored apart from the uncapped one)\n"
    "  --fault-site S --fault-count N [--fault-seed S]\n"
    "  [--fault-start C] [--fault-period P]   seeded fault plan\n"
    "\n"
    "failure policy (part of the spec; each cell runs once, and a\n"
    "failed cell is not stored, so a rerun executes it again):\n"
    "  --isolate             run cells in sandboxed worker processes\n"
    "  --deadline-ms N       per-cell wall deadline (isolate)\n"
    "  --mem-limit-mb N      per-worker RLIMIT_AS (isolate)\n"
    "  --cpu-limit N         per-cell RLIMIT_CPU seconds (isolate)\n"
    "  --budget CYCLES       watchdog cycle budget\n"
    "  --crash CELL=KIND     deliberately crash a cell (test hook;\n"
    "                        kinds: segv abort oom hang exit)\n"
    "\n"
    "invocation (never part of the identity):\n"
    "  --jobs N|auto         parallel cells\n"
    "  --force               restart on a spec mismatch\n"
    "  --cancel-after N      stop after N cells finish (test hook)\n"
    "  --quiet               suppress per-cell progress lines\n";

struct Options
{
    std::string command;
    std::string dir;
    sim::CampaignSpec spec;
    bool specGiven = false; ///< any spec-shaping flag was passed
    unsigned jobs = 0;
    bool force = false;
    uint64_t cancelAfter = 0;   ///< 0 = never
    bool quiet = false;
};

Options
parseOptions(int argc, char **argv)
{
    cli::ArgParser args(argc, argv, kUsage,
                        {{"--dir", nullptr, true},
                         {"--name", nullptr, true},
                         {"--workloads", nullptr, true},
                         {"--modes", nullptr, true},
                         {"--seeds", nullptr, true},
                         {"--scale", nullptr, true},
                         {"--max-insts", nullptr, true},
                         {"--fault-site", nullptr, true},
                         {"--fault-count", nullptr, true},
                         {"--fault-seed", nullptr, true},
                         {"--fault-start", nullptr, true},
                         {"--fault-period", nullptr, true},
                         {"--isolate", nullptr, false},
                         {"--deadline-ms", nullptr, true},
                         {"--mem-limit-mb", nullptr, true},
                         {"--cpu-limit", nullptr, true},
                         {"--budget", nullptr, true},
                         {"--crash", nullptr, true, true},
                         {"--jobs", nullptr, true},
                         {"--force", nullptr, false},
                         {"--cancel-after", nullptr, true},
                         {"--quiet", nullptr, false}});
    Options opt;
    if (args.positionals().size() != 1)
        args.fail("expected exactly one of run|resume|status|gc");
    opt.command = args.positionals()[0];
    if (opt.command != "run" && opt.command != "resume" &&
        opt.command != "status" && opt.command != "gc")
        args.fail("unknown subcommand '" + opt.command + "'");
    opt.dir = args.str("--dir");
    if (opt.dir.empty())
        args.fail(opt.command + " needs --dir DIR");

    sim::CampaignSpec &spec = opt.spec;
    for (const char *flag :
         {"--name", "--workloads", "--modes", "--seeds", "--scale",
          "--max-insts", "--fault-site", "--fault-count",
          "--fault-seed", "--fault-start", "--fault-period",
          "--isolate", "--deadline-ms", "--mem-limit-mb",
          "--cpu-limit", "--budget", "--crash"}) {
        if (args.has(flag)) {
            if (opt.command == "resume")
                args.fail(std::string("resume replays the journal's "
                                      "pinned spec; drop ") +
                          flag + " (or use run --force)");
            opt.specGiven = true;
        }
    }

    spec.name = args.str("--name", spec.name);
    if (args.has("--workloads"))
        spec.workloads =
            cli::expandWorkloadList(args.str("--workloads"));
    if (args.has("--modes")) {
        std::string text = args.str("--modes");
        if (text == "all") {
            spec.modes = sim::allModes();
        } else {
            for (const std::string &name : cli::splitCommas(text)) {
                sim::Mode mode;
                if (!sim::parseMode(name, &mode))
                    args.fail("unknown mode '" + name + "'");
                spec.modes.push_back(mode);
            }
        }
    } else {
        spec.modes = {sim::Mode::Microthread};
    }
    if (args.has("--seeds")) {
        spec.seeds.clear();
        for (const std::string &text :
             cli::splitCommas(args.str("--seeds"))) {
            uint64_t seed = 0;
            if (!cli::parseU64(text, &seed))
                args.fail("--seeds needs numbers (got '" + text +
                          "')");
            spec.seeds.push_back(seed);
        }
        if (spec.seeds.empty())
            args.fail("--seeds needs at least one seed");
    }
    spec.scale = args.u64("--scale", spec.scale);
    spec.maxInsts = args.u64("--max-insts", spec.maxInsts);
    if (args.has("--fault-site")) {
        std::string name = args.str("--fault-site");
        if (!sim::parseFaultSite(name, &spec.faults.site))
            args.fail("unknown fault site '" + name + "'");
    }
    spec.faults.count = args.u64("--fault-count", spec.faults.count);
    spec.faults.seed = args.u64("--fault-seed", spec.faults.seed);
    spec.faults.startCycle =
        args.u64("--fault-start", spec.faults.startCycle);
    spec.faults.period =
        args.u64("--fault-period", spec.faults.period);
    spec.isolate = args.has("--isolate");
    spec.wallDeadlineMs =
        args.u64("--deadline-ms", spec.wallDeadlineMs);
    spec.memLimitMb = args.u64("--mem-limit-mb", spec.memLimitMb);
    spec.cpuLimitSeconds =
        args.u64("--cpu-limit", spec.cpuLimitSeconds);
    spec.cycleBudget = args.u64("--budget", spec.cycleBudget);
    for (const std::string &text : args.all("--crash")) {
        size_t eq = text.find('=');
        if (eq == std::string::npos)
            args.fail("--crash needs CELL=KIND (got '" + text +
                      "')");
        sim::CrashKind kind;
        if (!sim::parseCrashKind(text.substr(eq + 1), &kind) ||
            kind == sim::CrashKind::None)
            args.fail("unknown crash kind '" + text.substr(eq + 1) +
                      "'");
        spec.crashes.emplace_back(text.substr(0, eq), kind);
    }

    opt.jobs = cli::jobsFlag(args, "--jobs");
    opt.force = args.has("--force");
    opt.cancelAfter = args.u64("--cancel-after", 0);
    opt.quiet = args.has("--quiet");

    if (opt.command == "run" && spec.workloads.empty())
        args.fail("run needs --workloads a,b,... (or 'all')");
    if (!spec.isolate &&
        (spec.wallDeadlineMs || spec.memLimitMb ||
         spec.cpuLimitSeconds))
        args.fail("--deadline-ms/--mem-limit-mb/--cpu-limit need "
                  "--isolate");
    if (!spec.crashes.empty() && !spec.isolate)
        args.fail("--crash needs --isolate (a deliberate crash must "
                  "be contained in a child process)");
    return opt;
}

/** Load the journal's pinned spec (resume, and the gc/status
 *  fallback when no spec flags are given). */
bool
journalSpec(const std::string &dir, sim::CampaignSpec *spec,
            std::string *err)
{
    std::string path = dir + "/journal.jsonl";
    sim::JournalContents journal = sim::CampaignJournal::read(path);
    if (!journal.exists) {
        *err = "no journal at " + path;
        return false;
    }
    if (!journal.headerOk) {
        *err = "journal " + path + " has no parsable header";
        return false;
    }
    try {
        *spec = sim::parseSpec(journal.spec);
    } catch (const sim::SimError &e) {
        *err = std::string("journal spec unparsable: ") + e.what();
        return false;
    }
    return true;
}

int
cmdRun(const Options &opt)
{
    sim::CampaignSpec spec = opt.spec;
    if (opt.command == "resume") {
        std::string err;
        if (!journalSpec(opt.dir, &spec, &err)) {
            std::fprintf(stderr, "ssmt_campaign: %s\n", err.c_str());
            return 2;
        }
    }

    // The cancel flag is shared by SIGINT and the deterministic
    // --cancel-after test hook: the campaign checks it before
    // starting each cell.
    std::atomic<uint64_t> finished{0};
    uint64_t cancel_after = opt.cancelAfter;
    std::atomic<bool> cancel{false};
    std::signal(SIGINT, onSigint);

    sim::CampaignOptions copts;
    copts.jobs = opt.jobs;
    copts.cancel = &cancel;
    copts.force = opt.force;
    bool quiet = opt.quiet;
    copts.log = [&](const std::string &line) {
        if (!quiet)
            std::fprintf(stderr, "[campaign] %s\n", line.c_str());
        // Cell-completion lines are "<cell>: <verdict>"; only they
        // advance the --cancel-after counter.
        uint64_t done =
            line.find(": ") != std::string::npos
                ? finished.fetch_add(1, std::memory_order_relaxed) +
                      1
                : finished.load(std::memory_order_relaxed);
        if ((cancel_after && done >= cancel_after) ||
            g_interrupted.load(std::memory_order_relaxed))
            cancel.store(true, std::memory_order_relaxed);
    };
    // SIGINT before the first cell finishes must also stop early.
    if (g_interrupted.load(std::memory_order_relaxed))
        cancel.store(true, std::memory_order_relaxed);

    sim::CampaignOutcome outcome =
        sim::runCampaign(spec, opt.dir, copts);

    std::fprintf(stderr,
                 "[campaign] %zu cells: %zu cached, %zu executed, "
                 "%zu failed%s\n",
                 outcome.cells.size(), outcome.cacheHits,
                 outcome.executed, outcome.failed,
                 outcome.completed ? "" : " (stopped early)");
    if (!outcome.failureSummary.empty())
        std::fputs(outcome.failureSummary.c_str(), stderr);
    if (outcome.completed && !quiet)
        std::fprintf(stderr, "[campaign] manifest: %s\n",
                     outcome.manifestPath.c_str());
    if (g_interrupted.load(std::memory_order_relaxed))
        std::fprintf(stderr,
                     "[campaign] interrupted; rerun `ssmt_campaign "
                     "resume --dir %s` to finish\n",
                     opt.dir.c_str());
    return (outcome.completed && outcome.failed == 0) ? 0 : 1;
}

int
cmdStatus(const Options &opt)
{
    std::string path = opt.dir + "/journal.jsonl";
    sim::JournalContents journal = sim::CampaignJournal::read(path);
    if (!journal.exists) {
        std::printf("journal: none (%s)\n", path.c_str());
        return 0;
    }
    if (!journal.headerOk) {
        std::printf("journal: header unparsable (%s)\n",
                    path.c_str());
        return 1;
    }
    // Every run appends a line per cell it served or ran: count each
    // cell once, by its latest line.
    std::map<std::string, const sim::JournalCell *> latest;
    for (const sim::JournalCell &cell : journal.cells)
        latest[cell.cell] = &cell;
    size_t cached = 0;
    size_t failed = 0;
    for (const auto &entry : latest) {
        if (entry.second->cached)
            cached++;
        if (entry.second->errorCode != sim::ErrorCode::None)
            failed++;
    }
    size_t total = 0;
    std::string spec_status = "parsable";
    try {
        sim::CampaignSpec spec = sim::parseSpec(journal.spec);
        total = sim::campaignCells(spec).size();
    } catch (const sim::SimError &e) {
        spec_status = std::string("UNPARSABLE: ") + e.what();
    }
    std::printf("journal: %s\n", path.c_str());
    std::printf("spec: %s\n", spec_status.c_str());
    std::printf("cells: %zu/%zu journaled (%zu cached, %zu failed)\n",
                latest.size(), total, cached, failed);
    if (journal.corruptLines)
        std::printf("corrupt mid-file lines: %zu\n",
                    journal.corruptLines);
    std::printf("ended: %s\n", journal.ended ? "yes" : "no");
    std::vector<std::string> store_keys =
        sim::ResultStore(opt.dir + "/store").list();
    std::printf("store: %zu entries\n", store_keys.size());
    // Stored results the journal never acknowledged — a nonzero lag
    // means a run died between store.save and journal.append, and
    // resume will re-serve those cells as cache hits.
    std::printf("journal lag: %zu stored-but-unjournaled\n",
                sim::journalLag(journal, store_keys));
    std::printf("manifest: %s\n",
                sim::pathExists(opt.dir + "/manifest.json")
                    ? "present"
                    : "absent");
    return 0;
}

int
cmdGc(const Options &opt)
{
    sim::CampaignSpec spec = opt.spec;
    if (!opt.specGiven) {
        std::string err;
        if (!journalSpec(opt.dir, &spec, &err)) {
            std::fprintf(stderr, "ssmt_campaign: %s\n", err.c_str());
            return 2;
        }
    }
    std::vector<std::string> removed =
        sim::campaignGc(spec, opt.dir);
    for (const std::string &key : removed)
        std::printf("removed %s\n", key.c_str());
    std::printf("gc: %zu stale entr%s removed\n", removed.size(),
                removed.size() == 1 ? "y" : "ies");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    try {
        if (opt.command == "status")
            return cmdStatus(opt);
        if (opt.command == "gc")
            return cmdGc(opt);
        return cmdRun(opt);
    } catch (const ssmt::sim::SimError &err) {
        std::fprintf(stderr, "ssmt_campaign: %s\n", err.what());
        return 2;
    } catch (const std::exception &err) {
        std::fprintf(stderr, "ssmt_campaign: %s\n", err.what());
        return 2;
    }
}
