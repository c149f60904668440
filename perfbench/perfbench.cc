/**
 * @file
 * ssmt_perfbench: the program behind the repository benchmark.
 *
 * Measures three workloads from outside the library, timing only
 * calls into its public functions (BENCHMARK.md has the full metric
 * map):
 *
 *   sim-baseline     every SPECint proxy through sim::runProgramChecked
 *                    in Mode::Baseline, one cell after another
 *   sim-microthread  the same programs in Mode::Microthread
 *   campaign         sim::runCampaign, an isolated cold pass and a
 *                    replay pass over one fresh directory
 *
 * `--trace 0` prints the end-to-end metrics; `--trace 1` additionally
 * drives cpu::SsmtCore with the loop SsmtCore::run() uses, records
 * spans around the library calls in memory, prints the per-layer
 * metrics and writes the spans (Chrome trace-event JSON) at exit. The
 * last stdout line is always one JSON object: {correct, attempted,
 * failed, metrics}.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cpu/ssmt_core.hh"
#include "sim/batch_runner.hh"
#include "sim/bench_json.hh"
#include "sim/campaign.hh"
#include "sim/golden.hh"
#include "sim/invariants.hh"
#include "sim/job_codec.hh"
#include "sim/jobs.hh"
#include "sim/sim_error.hh"
#include "sim/sim_runner.hh"
#include "sim/snapshot.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;
using sim::Mode;
using Clock = std::chrono::steady_clock;

/** Taken during static initialization, i.e. at process start. */
const Clock::time_point kProcessStart = Clock::now();

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (p in (0,100]). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(p / 100.0 * v.size() + 0.999999);
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Shortest round-trip decimal form of @p v. */
std::string
num(double v)
{
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
jsonString(const std::string &s)
{
    return "\"" + sim::BenchJson::escape(s) + "\"";
}

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

uint64_t
fnv1a(const std::string &text, uint64_t hash = 0xcbf29ce484222325ull)
{
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
readText(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

// ---------------------------------------------------------------------
// Options and workload definitions
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** A few programs at scale 1 for the benchmark's own tests. */
    bool tiny = false;
    std::string workDir = ".bench_build/work";
    std::string spansPath;
    std::string revision = "unknown";
};

/** What one workload runs. Fixed per name: changing any field changes
 *  the workload, so every figure it produced must be re-baselined. */
struct WorkloadDef
{
    std::string name;
    bool campaign = false;
    std::vector<std::string> programs;
    /** Modes whose cells the workload measures. */
    std::vector<Mode> modes;
    uint64_t scale = 1;
    /** Retired-instruction cap per cell; 0 = run to Halt. */
    uint64_t maxInsts = 0;
    /** Campaign fault-seed axis length (cells per workload x mode). */
    unsigned campaignSeeds = 1;
    /** Campaign workers (children in flight). */
    unsigned campaignJobs = 2;
};

WorkloadDef
workloadDef(const Options &opt)
{
    WorkloadDef def;
    def.name = opt.workload;
    def.programs = workloads::workloadNames();
    if (opt.workload == "sim-baseline" ||
        opt.workload == "sim-microthread") {
        def.modes = {opt.workload == "sim-baseline" ? Mode::Baseline
                                                    : Mode::Microthread};
        def.scale = 1;
    } else if (opt.workload == "campaign") {
        def.campaign = true;
        def.modes = sim::allModes();
        def.scale = 1;
        def.maxInsts = 20000;
        def.campaignSeeds = 2;
    } else {
        throw std::runtime_error("unknown workload '" + opt.workload +
                                 "' (sim-baseline, sim-microthread, "
                                 "campaign)");
    }
    def.campaignJobs = std::min(2u, sim::hostThreads());
    if (opt.tiny) {
        def.programs = {"comp", "mcf_2k", "gap_2k"};
        def.scale = 1;
        if (def.campaign)
            def.maxInsts = 5000;
    }
    return def;
}

sim::MachineConfig
cellConfig(const WorkloadDef &def, Mode mode)
{
    sim::MachineConfig cfg = sim::goldenMachineConfig();
    cfg.mode = mode;
    if (def.maxInsts > 0)
        cfg.maxInsts = def.maxInsts;
    return cfg;
}

// ---------------------------------------------------------------------
// Spans: kept in memory, written as Chrome trace events at exit
// ---------------------------------------------------------------------

struct Span
{
    std::string name;
    std::string cell;
    double startS = 0.0;    ///< since process start
    double durS = 0.0;
    int parent = -1;
    std::vector<std::pair<std::string, double>> args;
};

class Tracer
{
  public:
    bool on = false;

    /** Record a finished span; @return its index (parent handle). */
    int
    add(std::string name, std::string cell, Clock::time_point start,
        Clock::time_point end, int parent = -1,
        std::vector<std::pair<std::string, double>> args = {})
    {
        if (!on)
            return -1;
        spans_.push_back({std::move(name), std::move(cell),
                          secondsBetween(kProcessStart, start),
                          secondsBetween(start, end), parent,
                          std::move(args)});
        return static_cast<int>(spans_.size()) - 1;
    }

    bool
    write(const std::string &path, const std::string &host) const
    {
        std::ofstream out(path);
        out << "{\"host\": " << host << ", \"traceEvents\": [\n";
        for (size_t i = 0; i < spans_.size(); i++) {
            const Span &s = spans_[i];
            out << (i ? ",\n" : "") << "{\"name\": " << jsonString(s.name)
                << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
                << num(s.startS * 1e6) << ", \"dur\": "
                << num(s.durS * 1e6) << ", \"args\": {\"id\": " << i
                << ", \"parent\": " << s.parent
                << ", \"cell\": " << jsonString(s.cell);
            for (const auto &arg : s.args)
                out << ", " << jsonString(arg.first) << ": "
                    << num(arg.second);
            out << "}}";
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    std::vector<Span> spans_;
};

Tracer tracer;

// ---------------------------------------------------------------------
// Outputs and failure accounting
// ---------------------------------------------------------------------

struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** Count one operation; print and count @p why when it failed. */
    void
    check(bool ok, const std::string &why)
    {
        attempted++;
        if (!ok) {
            failed++;
            if (failed <= 20)
                std::printf("FAIL %s\n", why.c_str());
        }
    }
};

Tally tally;

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
statsText(const std::string &workload, const sim::Stats &stats)
{
    sim::GoldenRun run;
    run.workload = workload;
    run.stats = stats;
    return sim::goldenJson(run);
}

/** Golden compare, where the cell is exactly a committed golden run.
 *  @return 1 when compared, 0 when the cell has no golden twin. */
int
checkGolden(const Options &opt, const WorkloadDef &def,
            const std::string &program, Mode mode,
            const sim::Stats &stats)
{
    const workloads::WorkloadParams defaults;
    if (mode != sim::goldenMachineConfig().mode || def.maxInsts != 0 ||
        def.scale != defaults.scale || opt.seed != defaults.seed)
        return 0;
    const std::string path = "golden/" + sim::goldenFileName(program);
    std::string text = readText(path);
    if (text.empty())
        return 0;
    sim::GoldenRun golden;
    std::string err;
    bool parsed = sim::parseGolden(text, golden, &err);
    tally.check(parsed && sim::diffStats(golden.stats, stats).empty(),
                program + ": differs from " + path + " " + err);
    return 1;
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/**
 * The work before the first timed call: building every program. It is
 * repeated once per pass or round, so the samples span the whole run
 * rather than one moment of the host's speed; setup_s is their median.
 */
struct Setup
{
    std::vector<std::string> names;
    workloads::WorkloadParams params;
    std::vector<isa::Program> programs;
    /** Set-up seconds; the first sample runs from process start. */
    std::vector<double> setups;
    /** Seconds of the program builds alone. */
    std::vector<double> builds;

    /** Build every program again, recording one more sample. */
    void
    repeat(Clock::time_point start)
    {
        Clock::time_point b0 = Clock::now();
        std::vector<isa::Program> built;
        for (const std::string &name : names)
            built.push_back(workloads::makeWorkload(name, params));
        Clock::time_point b1 = Clock::now();
        tracer.add("workloads.build", "", b0, b1);
        builds.push_back(secondsBetween(b0, b1));
        setups.push_back(secondsBetween(start, b1));
        programs = std::move(built);
    }

    void repeat() { repeat(Clock::now()); }
};

Setup
makeSetup(const Options &opt, const WorkloadDef &def)
{
    Setup setup;
    setup.names = def.programs;
    setup.params.scale = def.scale;
    // CampaignSpec carries no program seed: a campaign always builds
    // its programs with the default seed, so its workload seed only
    // moves the cell seeds (and with them the store keys).
    if (!def.campaign)
        setup.params.seed = opt.seed;
    setup.repeat(kProcessStart);

    uint64_t digest = 0xcbf29ce484222325ull;
    for (const isa::Program &prog : setup.programs)
        digest = fnv1a(hex16(sim::programHash(prog)), digest);
    std::printf("program_hashes %s\n", hex16(digest).c_str());
    return setup;
}

// ---------------------------------------------------------------------
// One simulation cell: untraced (runProgramChecked) and traced
// (SsmtCore driven directly)
// ---------------------------------------------------------------------

struct CellRun
{
    sim::Stats stats;
    bool ok = false;
    std::string error;
    double seconds = 0.0;       ///< the timed call(s), total
    // Traced breakdown.
    double constructS = 0.0;
    double tickS = 0.0;
    double fastForwardS = 0.0;
    double checkS = 0.0;
    uint64_t ticks = 0;
    uint64_t skipped = 0;
};

CellRun
runUntraced(const isa::Program &prog, const sim::MachineConfig &cfg,
            const std::string &label)
{
    CellRun run;
    Clock::time_point t0 = Clock::now();
    try {
        run.stats = sim::runProgramChecked(prog, cfg, label);
        run.ok = true;
    } catch (const sim::SimError &err) {
        run.error = err.what();
    }
    run.seconds = secondsBetween(t0, Clock::now());
    return run;
}

CellRun
runTraced(const isa::Program &prog, const sim::MachineConfig &cfg,
          const std::string &label)
{
    CellRun run;
    try {
        cfg.validateOrThrow();
        Clock::time_point t0 = Clock::now();
        cpu::SsmtCore core(prog, cfg);
        Clock::time_point t1 = Clock::now();
        // SsmtCore::run()'s loop, with a clock read after each call.
        Clock::time_point prev = t1;
        while (!core.done() && core.cycle() < cfg.maxCycles &&
               core.retiredInsts() < cfg.maxInsts) {
            uint64_t before = core.cycle();
            core.fastForward(cfg.maxCycles);
            run.skipped += core.cycle() - before;
            Clock::time_point mid = Clock::now();
            core.tick();
            Clock::time_point after = Clock::now();
            run.fastForwardS += secondsBetween(prev, mid);
            run.tickS += secondsBetween(mid, after);
            run.ticks++;
            prev = after;
        }
        run.stats = core.finish();
        Clock::time_point t2 = Clock::now();
        std::vector<sim::InvariantViolation> violations =
            core.checkStructuralInvariants();
        for (const sim::InvariantViolation &v :
             sim::StatsChecker::check(run.stats))
            violations.push_back(v);
        Clock::time_point t3 = Clock::now();
        run.constructS = secondsBetween(t0, t1);
        run.checkS = secondsBetween(t2, t3);
        run.seconds = secondsBetween(t0, t3);
        int cell = tracer.add("cell", label, t0, t3);
        tracer.add("cpu.construct", label, t0, t1, cell);
        tracer.add("cpu.run", label, t1, t2, cell,
                   {{"tick_s", run.tickS},
                    {"fastforward_s", run.fastForwardS},
                    {"tick_calls", static_cast<double>(run.ticks)},
                    {"skipped_cycles", static_cast<double>(run.skipped)}});
        tracer.add("sim.check", label, t2, t3, cell);
        if (!violations.empty()) {
            run.error = "invariant violation:\n" +
                        sim::StatsChecker::describe(violations);
            return run;
        }
        run.ok = true;
    } catch (const sim::SimError &err) {
        run.error = err.what();
    }
    return run;
}

/**
 * Fold a repeat of a cell into its fastest-repeat record: every time
 * becomes the minimum over the repeats so far. The host this was
 * tuned on is shared, and its speed drops by up to 40% for seconds at
 * a time; the per-cell minimum is the estimator least moved by those
 * phases (bench_throughput keeps the same best-of-repeats figure).
 */
void
keepFastest(CellRun &best, const CellRun &run, bool first)
{
    if (first) {
        best = run;
        return;
    }
    best.seconds = std::min(best.seconds, run.seconds);
    best.constructS = std::min(best.constructS, run.constructS);
    best.tickS = std::min(best.tickS, run.tickS);
    best.fastForwardS = std::min(best.fastForwardS, run.fastForwardS);
    best.checkS = std::min(best.checkS, run.checkS);
}

/**
 * Moves the calling thread to the next CPU it may run on, one CPU per
 * repeat, and restores the original CPU set when destroyed. On the
 * shared host the benchmark was tuned on, one vCPU could run the
 * simulator 40% slower than another for minutes at a time, so a
 * thread left where the scheduler put it could spend a whole run on
 * the slow one; visiting every CPU lets the fastest repeat see them
 * all.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        if (sched_getaffinity(0, sizeof(all_), &all_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; cpu++)
            if (CPU_ISSET(cpu, &all_))
                cpus_.push_back(cpu);
    }

    ~CpuRotation() { restore(); }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void
    next()
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

    /** Back to the original CPU set (forked children inherit it). */
    void
    restore()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof(all_), &all_);
    }

  private:
    cpu_set_t all_{};
    std::vector<int> cpus_;
    size_t next_ = 0;
};

/** Add @p run's times and counters into @p total. */
void
accumulate(CellRun &total, const CellRun &run)
{
    total.seconds += run.seconds;
    total.constructS += run.constructS;
    total.tickS += run.tickS;
    total.fastForwardS += run.fastForwardS;
    total.checkS += run.checkS;
    total.ticks += run.ticks;
    total.skipped += run.skipped;
    std::vector<uint64_t> sum = sim::statsValues(total.stats);
    std::vector<uint64_t> more = sim::statsValues(run.stats);
    for (size_t i = 0; i < sum.size(); i++)
        sum[i] += more[i];
    sim::statsFromValues(total.stats, sum);
}

double
mips(const CellRun &run)
{
    return ratio(run.stats.retiredInsts / 1e6, run.seconds);
}

double
mcps(const CellRun &run)
{
    return ratio(run.stats.cycles / 1e6, run.seconds);
}

double
simIpc(const sim::Stats &s)
{
    return ratio(static_cast<double>(s.retiredInsts),
                 static_cast<double>(s.cycles));
}

double
usedMpki(const sim::Stats &s)
{
    return ratio(1000.0 * s.usedMispredicts,
                 static_cast<double>(s.retiredInsts));
}

std::string
cellLabel(const std::string &program, Mode mode)
{
    return program + "/" + sim::modeName(mode);
}

// ---------------------------------------------------------------------
// Campaign helpers
// ---------------------------------------------------------------------

sim::CampaignSpec
campaignSpec(const Options &opt, const WorkloadDef &def)
{
    sim::CampaignSpec spec;
    spec.name = "perfbench-" + def.name;
    spec.workloads = def.programs;
    spec.modes = def.modes;
    spec.seeds.clear();
    // Non-zero cell seeds, so each overrides the (disabled) fault
    // plan's seed and lands under its own store key.
    for (unsigned i = 0; i < def.campaignSeeds; i++)
        spec.seeds.push_back(opt.seed * def.campaignSeeds + i + 1);
    spec.scale = def.scale;
    spec.maxInsts = def.maxInsts;
    spec.isolate = true;
    spec.wallDeadlineMs = 120000;
    return spec;
}

/** The store key of every cell of @p spec, in campaignCells order. */
std::vector<std::string>
expectedKeys(const sim::CampaignSpec &spec,
             const std::vector<isa::Program> &programs,
             const std::vector<std::string> &names)
{
    std::map<std::string, uint64_t> hashes;
    for (size_t i = 0; i < names.size(); i++)
        hashes[names[i]] = sim::programHash(programs[i]);
    std::vector<std::string> keys;
    for (const sim::CampaignCell &cell : sim::campaignCells(spec))
        keys.push_back(sim::ResultStore::cellKey(
            hashes.at(cell.workload), sim::cellConfig(spec, cell),
            cell.seed));
    return keys;
}

struct CampaignRound
{
    double coldS = 0.0;
    double replayS = 0.0;
    size_t cells = 0;
    sim::Stats sums;            ///< Σ cold-pass counters (IPC, MPKI)
    std::vector<sim::BatchResult> cold;
    std::vector<double> gapsMs;
    size_t replayHits = 0;
    std::string manifest;
};

/** One cold + replay pair over a fresh @p dir, with its output checks.
 *  Leaves @p dir in place (the caller removes it). */
CampaignRound
campaignRound(const sim::CampaignSpec &spec, const std::string &dir,
              unsigned jobs, const std::vector<std::string> &keys)
{
    CampaignRound round;
    std::filesystem::remove_all(dir);

    sim::CampaignOptions opts;
    opts.jobs = jobs;
    Clock::time_point last;
    bool first = true;
    opts.onCell = [&](const sim::CampaignCell &, const std::string &,
                      const sim::BatchResult &, bool) {
        Clock::time_point now = Clock::now();
        if (!first)
            round.gapsMs.push_back(secondsBetween(last, now) * 1e3);
        first = false;
        last = now;
    };

    Clock::time_point c0 = Clock::now();
    sim::CampaignOutcome cold = sim::runCampaign(spec, dir, opts);
    Clock::time_point c1 = Clock::now();
    round.coldS = secondsBetween(c0, c1);
    tracer.add("campaign.cold", spec.name, c0, c1);
    round.cells = cold.cells.size();

    tally.check(cold.completed && cold.executed == round.cells &&
                    cold.cacheHits == 0,
                "campaign cold pass: completed=" +
                    std::to_string(cold.completed) + " executed=" +
                    std::to_string(cold.executed) + " hits=" +
                    std::to_string(cold.cacheHits));
    for (size_t i = 0; i < cold.results.size(); i++) {
        const sim::BatchResult &r = cold.results[i];
        tally.check(r.ok(), "campaign cell " + cold.cells[i].name +
                                " stored error: " + r.error);
        round.sums.cycles += r.stats.cycles;
        round.sums.retiredInsts += r.stats.retiredInsts;
        round.sums.usedMispredicts += r.stats.usedMispredicts;
    }
    std::vector<std::string> stored =
        sim::ResultStore(dir + "/store").list();
    std::vector<std::string> sortedKeys = keys;
    std::sort(stored.begin(), stored.end());
    std::sort(sortedKeys.begin(), sortedKeys.end());
    tally.check(stored == sortedKeys, "campaign store keys differ from "
                                      "the keys the spec's cells imply");
    round.manifest = readText(dir + "/manifest.json");
    round.cold = std::move(cold.results);

    opts.onCell = nullptr;
    Clock::time_point r0 = Clock::now();
    sim::CampaignOutcome replay = sim::runCampaign(spec, dir, opts);
    Clock::time_point r1 = Clock::now();
    round.replayS = secondsBetween(r0, r1);
    tracer.add("campaign.replay", spec.name, r0, r1);
    round.replayHits = replay.cacheHits;
    tally.check(replay.completed && replay.cacheHits == round.cells &&
                    replay.executed == 0,
                "campaign replay pass: " +
                    std::to_string(replay.cacheHits) + "/" +
                    std::to_string(round.cells) + " cache hits");
    tally.check(readText(dir + "/manifest.json") == round.manifest,
                "campaign replay manifest differs from the cold one");
    return round;
}

// ---------------------------------------------------------------------
// Workload bodies
// ---------------------------------------------------------------------

struct Report
{
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
};

/** sim-*, untraced: repeated passes over every program. */
void
simWorkload(const Options &opt, const WorkloadDef &def,
            Setup &setup, Report &rep)
{
    const Mode mode = def.modes.front();
    const sim::MachineConfig cfg = cellConfig(def, mode);
    const size_t n = setup.programs.size();
    constexpr double kInf = std::numeric_limits<double>::infinity();

    std::string store_dir = opt.workDir + "/sim-store";
    std::filesystem::remove_all(store_dir);
    std::filesystem::create_directories(store_dir);
    sim::ResultStore store(store_dir);
    std::vector<std::string> keys(n), reference(n);
    for (size_t i = 0; i < n; i++)
        keys[i] = sim::ResultStore::cellKey(
            sim::programHash(setup.programs[i]), cfg, opt.seed);

    // Fastest repeat of each cell: the runProgramChecked call, the
    // whole cell (call plus output check) and its store replay.
    std::vector<CellRun> best(n);
    std::vector<double> bestCell(n, kInf), bestReplay(n, kInf);
    std::vector<double> passMips;
    int golden = 0;
    CpuRotation rotation;
    Clock::time_point start = Clock::now();
    for (int pass = 0;; pass++) {
        rotation.next();
        if (pass > 0)
            setup.repeat();
        CellRun sums;
        for (size_t i = 0; i < n; i++) {
            const std::string &name = def.programs[i];
            Clock::time_point c0 = Clock::now();
            CellRun run =
                runUntraced(setup.programs[i], cfg, cellLabel(name, mode));
            tally.check(run.ok, name + ": " + run.error);
            std::string text = statsText(name, run.stats);
            if (pass == 0) {
                reference[i] = text;
                golden += checkGolden(opt, def, name, mode, run.stats);
            } else {
                tally.check(text == reference[i],
                            name + ": counters differ between repeats");
            }
            bestCell[i] =
                std::min(bestCell[i], secondsBetween(c0, Clock::now()));
            accumulate(sums, run);
            keepFastest(best[i], run, pass == 0);
        }
        passMips.push_back(mips(sums));
        if (pass == 0) {
            for (size_t i = 0; i < n; i++) {
                sim::BatchResult result;
                result.stats = best[i].stats;
                result.attempts = 1;
                tally.check(store.save(keys[i], result),
                            def.programs[i] + ": store save failed");
            }
        } else {
            // Replay: every cell served back from the result store.
            for (size_t i = 0; i < n; i++) {
                Clock::time_point r0 = Clock::now();
                sim::BatchResult result;
                bool hit = store.load(keys[i], cfg, &result);
                tally.check(hit && statsText(def.programs[i],
                                             result.stats) == reference[i],
                            def.programs[i] + ": store replay differs");
                bestReplay[i] =
                    std::min(bestReplay[i], secondsBetween(r0, Clock::now()));
            }
        }
        if (pass >= 1 && secondsBetween(start, Clock::now()) >= opt.seconds)
            break;
    }
    std::filesystem::remove_all(store_dir);

    CellRun sums;
    for (const CellRun &run : best)
        accumulate(sums, run);
    double cellS = 0.0, replayS = 0.0;
    for (size_t i = 0; i < n; i++) {
        cellS += bestCell[i];
        replayS += bestReplay[i];
    }
    std::printf("passes %zu cells_per_pass %zu golden_cells_compared %d "
                "median_pass_sim_mips %s\n",
                passMips.size(), n, golden, num(median(passMips)).c_str());

    rep.endToEnd = {
        {"sim_mips", mips(sums), "MIPS"},
        {"sim_mcps", mcps(sums), "Mcycles/s"},
        {"cells_per_s", ratio(n, cellS), "cells/s"},
        {"replay_cells_per_s", ratio(n, replayS), "cells/s"},
        {"sim_ipc", simIpc(sums.stats), "inst/cycle"},
        {"used_mpki", usedMpki(sums.stats), "mispred/kinst"},
    };
}

/** campaign, untraced: cold + replay rounds over fresh directories. */
void
campaignWorkload(const Options &opt, const WorkloadDef &def,
                 Setup &setup, Report &rep)
{
    sim::CampaignSpec spec = campaignSpec(opt, def);
    std::vector<std::string> keys =
        expectedKeys(spec, setup.programs, def.programs);
    uint64_t digest = 0xcbf29ce484222325ull;
    for (const std::string &key : keys)
        digest = fnv1a(key, digest);
    std::printf("cell_keys %s\n", hex16(digest).c_str());

    // Fastest repeat of each pass and of each cell's parent-side time.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double coldS = kInf, replayS = kInf;
    std::vector<double> cellS(keys.size(), kInf);
    std::string manifest;
    sim::Stats sums;
    int rounds = 0;
    Clock::time_point start = Clock::now();
    for (int r = 0;; r++) {
        if (r > 0)
            setup.repeat();
        std::string dir = opt.workDir + "/campaign-r" + std::to_string(r);
        CampaignRound round =
            campaignRound(spec, dir, def.campaignJobs, keys);
        std::filesystem::remove_all(dir);
        if (r == 0) {
            manifest = round.manifest;
            sums = round.sums;
        } else {
            tally.check(round.manifest == manifest,
                        "campaign manifest differs between rounds");
        }
        coldS = std::min(coldS, round.coldS);
        replayS = std::min(replayS, round.replayS);
        for (size_t i = 0; i < round.cold.size(); i++)
            cellS[i] = std::min(cellS[i], round.cold[i].hostSeconds);
        rounds++;
        if (secondsBetween(start, Clock::now()) >= opt.seconds)
            break;
    }
    double simSeconds = 0.0;
    for (double seconds : cellS)
        simSeconds += seconds;
    std::printf("rounds %d cells_per_round %zu\n", rounds, keys.size());

    rep.endToEnd = {
        {"sim_mips", ratio(sums.retiredInsts / 1e6, simSeconds), "MIPS"},
        {"sim_mcps", ratio(sums.cycles / 1e6, simSeconds), "Mcycles/s"},
        {"cells_per_s", ratio(keys.size(), coldS), "cells/s"},
        {"replay_cells_per_s", ratio(keys.size(), replayS), "cells/s"},
        {"sim_ipc", simIpc(sums), "inst/cycle"},
        {"used_mpki", usedMpki(sums), "mispred/kinst"},
    };
}

/** The traced run: every layer, for the workload's cells. */
void
tracedWorkload(const Options &opt, const WorkloadDef &def,
               Setup &setup, Report &rep)
{
    // The cycle-loop layers. Baseline and microthread cells both run,
    // whatever the workload, so the mechanism tax and the ROADMAP
    // gate come from one invocation.
    std::vector<Mode> modes = def.modes;
    for (Mode m : {Mode::Baseline, Mode::Microthread})
        if (std::find(modes.begin(), modes.end(), m) == modes.end())
            modes.push_back(m);

    const size_t n = setup.programs.size();
    std::map<std::string, std::string> reference;
    // Fastest repeat of every (mode, program) cell, traced and not.
    std::map<Mode, std::vector<CellRun>> bestTraced, bestUntraced;
    for (Mode mode : modes) {
        bestTraced[mode].resize(n);
        bestUntraced[mode].resize(n);
    }
    int golden = 0;
    size_t rounds = 0;
    Clock::time_point start = Clock::now();
    const double loopBudget = 0.6 * opt.seconds;
    CpuRotation rotation;
    for (int round = 0;; round++) {
        rotation.next();
        if (round > 0)
            setup.repeat();
        for (Mode mode : modes) {
            sim::MachineConfig cfg = cellConfig(def, mode);
            for (size_t i = 0; i < n; i++) {
                const std::string &name = def.programs[i];
                std::string label = cellLabel(name, mode);
                // Alternate which side goes first, so neither always
                // runs on a cache the other warmed.
                CellRun a, b;
                if (round % 2 == 0) {
                    a = runUntraced(setup.programs[i], cfg, label);
                    b = runTraced(setup.programs[i], cfg, label);
                } else {
                    b = runTraced(setup.programs[i], cfg, label);
                    a = runUntraced(setup.programs[i], cfg, label);
                }
                tally.check(a.ok, label + ": " + a.error);
                tally.check(b.ok, label + " (traced): " + b.error);
                std::string ta = statsText(name, a.stats);
                tally.check(ta == statsText(name, b.stats),
                            label + ": traced counters differ from "
                                    "untraced");
                if (round == 0) {
                    reference[label] = ta;
                    golden += checkGolden(opt, def, name, mode, a.stats);
                } else {
                    tally.check(ta == reference[label],
                                label + ": counters differ between "
                                        "repeats");
                }
                keepFastest(bestUntraced[mode][i], a, round == 0);
                keepFastest(bestTraced[mode][i], b, round == 0);
            }
        }
        rounds++;
        if (secondsBetween(start, Clock::now()) >= loopBudget)
            break;
    }
    rotation.restore();

    auto total = [&](std::map<Mode, std::vector<CellRun>> &best,
                     const std::vector<Mode> &which) {
        CellRun sums;
        for (Mode mode : which)
            for (const CellRun &run : best[mode])
                accumulate(sums, run);
        return sums;
    };
    const CellRun traced = total(bestTraced, def.modes);
    const CellRun untraced = total(bestUntraced, def.modes);
    const CellRun base = total(bestTraced, {Mode::Baseline});
    const CellRun mt = total(bestTraced, {Mode::Microthread});
    const double baseMips =
        mips(total(bestUntraced, {Mode::Baseline}));
    const double mtMips =
        mips(total(bestUntraced, {Mode::Microthread}));
    const sim::Stats &c = traced.stats;
    const double tracedMips = mips(traced);
    const double untracedMips = mips(untraced);
    const double taxNs =
        ratio((mt.tickS + mt.fastForwardS - base.tickS -
               base.fastForwardS) * 1e9,
              static_cast<double>(mt.stats.spawnAttempts));
    uint64_t predsAll = c.predEarly + c.predLate + c.predUseless +
                        c.predNeverReached;

    std::printf("rounds %zu golden_cells_compared %d\n", rounds, golden);
    std::printf("tracing: sim_mips traced %s untraced %s difference %s "
                "(%s%%)\n",
                num(tracedMips).c_str(), num(untracedMips).c_str(),
                num(tracedMips - untracedMips).c_str(),
                num(100.0 * ratio(untracedMips - tracedMips, untracedMips))
                    .c_str());
    std::printf("gate: sim_mips microthread / baseline = %s / %s = %s "
                "(ROADMAP item 2 asks >= 0.5)\n",
                num(mtMips).c_str(), num(baseMips).c_str(),
                num(ratio(mtMips, baseMips)).c_str());

    // The campaign layers, on a spec made of the workload's own cells.
    sim::CampaignSpec spec = campaignSpec(opt, def);
    std::vector<isa::Program> campaignPrograms = setup.programs;
    if (!def.campaign) {
        // runCampaign builds default-seed programs.
        workloads::WorkloadParams params;
        params.scale = def.scale;
        campaignPrograms.clear();
        for (const std::string &name : def.programs)
            campaignPrograms.push_back(workloads::makeWorkload(name, params));
    }
    std::vector<std::string> keys =
        expectedKeys(spec, campaignPrograms, def.programs);
    std::string dir = opt.workDir + "/traced-campaign";
    CampaignRound round = campaignRound(spec, dir, def.campaignJobs, keys);
    std::filesystem::remove_all(dir);

    // Codec, store and journal, timed one call at a time on the cold
    // pass's real results.
    std::vector<sim::CampaignCell> cells = sim::campaignCells(spec);
    std::vector<double> encodeUs, decodeUs, saveUs, loadUs, appendUs;
    std::string codecDir = opt.workDir + "/traced-codec";
    std::filesystem::remove_all(codecDir);
    std::filesystem::create_directories(codecDir + "/store");
    sim::ResultStore store(codecDir + "/store");
    sim::CampaignJournal journal(codecDir + "/journal.jsonl");
    tally.check(journal.open(true) &&
                    journal.appendHeader(sim::specJson(spec)),
                "journal open failed");
    for (size_t i = 0; i < round.cold.size(); i++) {
        const sim::BatchResult &result = round.cold[i];
        sim::MachineConfig cfg = sim::cellConfig(spec, cells[i]);
        Clock::time_point t0 = Clock::now();
        std::string doc = sim::encodeJobResult(result, "", true);
        Clock::time_point t1 = Clock::now();
        sim::BatchResult decoded;
        std::string checkpoint;
        bool final_attempt = false;
        bool parsed = true;
        try {
            sim::decodeJobResult(doc, cfg, &decoded, &checkpoint,
                                 &final_attempt);
        } catch (const sim::SimError &) {
            parsed = false;
        }
        Clock::time_point t2 = Clock::now();
        bool saved = store.save(keys[i], result);
        Clock::time_point t3 = Clock::now();
        sim::BatchResult loaded;
        bool hit = store.load(keys[i], cfg, &loaded);
        Clock::time_point t4 = Clock::now();
        bool appended = journal.appendCell(
            {cells[i].name, keys[i], result.errorCode, false});
        Clock::time_point t5 = Clock::now();
        tracer.add("job_codec.encode", cells[i].name, t0, t1);
        tracer.add("job_codec.decode", cells[i].name, t1, t2);
        tracer.add("store.save", cells[i].name, t2, t3);
        tracer.add("store.load", cells[i].name, t3, t4);
        tracer.add("journal.append", cells[i].name, t4, t5);
        encodeUs.push_back(secondsBetween(t0, t1) * 1e6);
        decodeUs.push_back(secondsBetween(t1, t2) * 1e6);
        saveUs.push_back(secondsBetween(t2, t3) * 1e6);
        loadUs.push_back(secondsBetween(t3, t4) * 1e6);
        appendUs.push_back(secondsBetween(t4, t5) * 1e6);
        tally.check(parsed && saved && hit && appended &&
                        sim::encodeJobResult(decoded, "", true) == doc &&
                        sim::encodeJobResult(loaded, "", true) == doc,
                    cells[i].name + ": codec/store round trip differs");
    }
    journal.close();
    std::filesystem::remove_all(codecDir);

    // proc_runner: one-job isolated BatchRunner::run per cell, for the
    // first few cells, checked against the campaign's stored result.
    std::vector<double> isolatedMs;
    sim::BatchRunner runner(1);
    sim::BatchPolicy policy;
    policy.isolate = true;
    std::map<std::string, size_t> programIndex;
    for (size_t i = 0; i < def.programs.size(); i++)
        programIndex[def.programs[i]] = i;
    for (size_t i = 0; i < std::min<size_t>(cells.size(), 10); i++) {
        sim::BatchJob job;
        job.name = cells[i].name;
        job.program = campaignPrograms[programIndex.at(cells[i].workload)];
        job.config = sim::cellConfig(spec, cells[i]);
        Clock::time_point t0 = Clock::now();
        std::vector<sim::BatchResult> out = runner.run({job}, policy);
        Clock::time_point t1 = Clock::now();
        tracer.add("proc_runner.isolated_job", job.name, t0, t1);
        isolatedMs.push_back(secondsBetween(t0, t1) * 1e3);
        tally.check(out.size() == 1 && out[0].ok() &&
                        statsText(job.name, out[0].stats) ==
                            statsText(job.name, round.cold[i].stats),
                    job.name + ": isolated job differs from the "
                               "campaign cell");
    }

    auto count = [](uint64_t v) { return static_cast<double>(v); };
    rep.perLayer = {
        {"workloads.build_s", median(setup.builds), "s"},
        {"cpu.construct_s", traced.constructS, "s"},
        {"cpu.tick_s", traced.tickS, "s"},
        {"cpu.tick_calls", count(traced.ticks), "count"},
        {"cpu.ns_per_tick", ratio(traced.tickS * 1e9, count(traced.ticks)),
         "ns"},
        {"cpu.host_ns_per_inst",
         ratio((traced.tickS + traced.fastForwardS) * 1e9,
               count(c.retiredInsts)),
         "ns"},
        {"cpu.fastforward_s", traced.fastForwardS, "s"},
        {"cpu.skipped_cycles", count(traced.skipped), "count"},
        {"cpu.skip_ratio", ratio(count(traced.skipped), count(c.cycles)),
         "ratio"},
        {"sim.check_s", traced.checkS, "s"},
        {"core.spawn_attempts", count(c.spawnAttempts), "count"},
        {"core.spawns", count(c.spawns), "count"},
        {"core.micro_ops", count(c.microOpsExecuted), "count"},
        {"core.spawn_alloc_ratio",
         ratio(count(c.spawns), count(c.spawnAttempts)), "ratio"},
        {"core.completed_ratio",
         ratio(count(c.microthreadsCompleted), count(c.spawns)), "ratio"},
        {"core.useful_pred_ratio",
         ratio(count(c.predEarly + c.predLate), count(predsAll)), "ratio"},
        {"core.pcache_writes", count(c.pcacheWrites), "count"},
        {"core.promotions", count(c.promotionsCompleted), "count"},
        {"core.tax_ns_per_spawn_attempt", taxNs, "ns"},
        {"bpred.cond_branches", count(c.condBranches), "count"},
        {"bpred.hw_mpki",
         ratio(1000.0 * (c.condHwMispredicts + c.indirectHwMispredicts),
               count(c.retiredInsts)),
         "mispred/kinst"},
        {"memory.l1d_accesses", count(c.l1dAccesses), "count"},
        {"memory.l1d_miss_ratio",
         ratio(count(c.l1dMisses), count(c.l1dAccesses)), "ratio"},
        {"memory.l2_miss_ratio",
         ratio(count(c.l2Misses), count(c.l2Accesses)), "ratio"},
        {"campaign.cold_s", round.coldS, "s"},
        {"campaign.replay_s", round.replayS, "s"},
        {"campaign.cell_gap_ms_p50", percentile(round.gapsMs, 50), "ms"},
        {"campaign.cell_gap_ms_p90", percentile(round.gapsMs, 90), "ms"},
        {"campaign.cache_hit_ratio",
         ratio(count(round.replayHits), count(round.cells)), "ratio"},
        {"proc_runner.isolated_job_ms_p50", percentile(isolatedMs, 50),
         "ms"},
        {"proc_runner.isolated_job_ms_p90", percentile(isolatedMs, 90),
         "ms"},
        {"job_codec.encode_us", median(encodeUs), "us"},
        {"job_codec.decode_us", median(decodeUs), "us"},
        {"store.save_us", median(saveUs), "us"},
        {"store.load_us", median(loadUs), "us"},
        {"journal.append_us_p50", percentile(appendUs, 50), "us"},
        {"journal.append_us_p90", percentile(appendUs, 90), "us"},
        {"tracing.sim_mips", tracedMips, "MIPS"},
        {"tracing.overhead_pct",
         100.0 * ratio(untracedMips - tracedMips, untracedMips), "%"},
        {"gate.mt_over_base_mips", ratio(mtMips, baseMips), "ratio"},
    };
}

// ---------------------------------------------------------------------
// Host fingerprint
// ---------------------------------------------------------------------

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

unsigned
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return sim::hostThreads();
}

std::string
hostJson(const Options &opt)
{
    return "{\"cpu\": " + jsonString(cpuModel()) +
           ", \"nproc\": " + std::to_string(nproc()) +
           ", \"compiler\": " + jsonString(PERFBENCH_COMPILER) +
           ", \"flags\": " + jsonString(PERFBENCH_FLAGS) +
           ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
           ", \"revision\": " + jsonString(opt.revision) + "}";
}

// ---------------------------------------------------------------------
// main
// ---------------------------------------------------------------------

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::runtime_error(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed")
            opt.seed = std::stoull(value());
        else if (arg == "--seconds")
            opt.seconds = std::stod(value());
        else if (arg == "--trace")
            opt.trace = std::stoi(value()) != 0;
        else if (arg == "--tiny")
            opt.tiny = true;
        else if (arg == "--work-dir")
            opt.workDir = value();
        else if (arg == "--spans")
            opt.spansPath = value();
        else if (arg == "--revision")
            opt.revision = value();
        else
            throw std::runtime_error("unknown argument '" + arg + "'");
    }
    if (opt.workload.empty())
        throw std::runtime_error("--workload is required");
    return opt;
}

void
printResult(const std::vector<Metric> &metrics)
{
    std::string json = "{\"correct\": ";
    json += tally.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally.attempted) +
            ", \"failed\": " + std::to_string(tally.failed) +
            ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); i++) {
        json += (i ? ", " : "") + jsonString(metrics[i].name) +
                ": {\"value\": " + num(metrics[i].value) +
                ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

int
run(const Options &opt)
{
    WorkloadDef def = workloadDef(opt);
    tracer.on = opt.trace;
    std::filesystem::create_directories(opt.workDir);
    std::string host = hostJson(opt);
    std::printf("host %s\n", host.c_str());
    std::printf("workload %s seed %llu scale %llu programs %zu\n",
                def.name.c_str(),
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(def.scale),
                def.programs.size());

    Setup setup = makeSetup(opt, def);
    Report rep;
    if (opt.trace)
        tracedWorkload(opt, def, setup, rep);
    else if (def.campaign)
        campaignWorkload(opt, def, setup, rep);
    else
        simWorkload(opt, def, setup, rep);

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    std::vector<Metric> endToEnd = rep.endToEnd;
    endToEnd.push_back({"setup_s", median(setup.setups), "s"});
    endToEnd.push_back(
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
         "MB"});

    if (opt.trace && !opt.spansPath.empty()) {
        bool ok = tracer.write(opt.spansPath, host);
        tally.check(ok, "cannot write spans to " + opt.spansPath);
        std::printf("spans written to %s\n", opt.spansPath.c_str());
    }
    const std::vector<Metric> &shown = opt.trace ? rep.perLayer : endToEnd;
    for (const Metric &m : shown)
        std::printf("metric %s = %s %s\n", m.name.c_str(),
                    num(m.value).c_str(), m.unit.c_str());
    std::printf("fail_ratio = %s (%llu failed / %llu attempted)\n",
                num(ratio(static_cast<double>(tally.failed),
                          static_cast<double>(tally.attempted)))
                    .c_str(),
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
    printResult(shown);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Line-buffered, so forked campaign children never inherit
    // unflushed output.
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    // Pin glibc's mmap threshold at its default. Left to slide, it
    // rises after the first large free, later cells' tables come from
    // the heap, and peak RSS then depends on the order of frees: it
    // flipped between 53 and 65 MB from one seed to the next. Pinned,
    // every table above 128 KiB is mapped for its cell and returned
    // after it, as in a fresh process.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &err) {
        std::fprintf(stderr, "ssmt_perfbench: %s\n", err.what());
        return 2;
    }
}
