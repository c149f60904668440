/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries.
 *
 * Every bench parses its flags in one pass (parseArgs), fans its
 * (workload, config) cells across host cores (runMatrix /
 * sim::BatchRunner), and records wall-clock plus per-cell host
 * timing into a BENCH_<name>.json file (SuiteRun / sim::BenchJson).
 */

#ifndef SSMT_BENCH_BENCH_UTIL_HH
#define SSMT_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <vector>

#include "sim/batch_runner.hh"
#include "sim/jobs.hh"
#include "sim/bench_json.hh"
#include "sim/machine_config.hh"
#include "sim/sim_runner.hh"
#include "workloads/workloads.hh"

namespace ssmt
{
namespace bench
{

/**
 * Flags shared by every bench binary:
 *   --quick    run a third of the suite for smoke checks
 *   --jobs N   worker threads (default: SSMT_JOBS, then all cores)
 * plus any binary-specific flags passed via @p extra. Unknown flags
 * are an error, not a silent no-op.
 */
struct Args
{
    bool quick = false;
    unsigned jobs = 1;                  ///< resolved worker count
    std::vector<std::string> flags;     ///< extra flags seen

    bool
    has(const char *flag) const
    {
        for (const std::string &f : flags)
            if (f == flag)
                return true;
        return false;
    }
};

/** Single pass over argv; exits with status 2 on a bad command line. */
inline Args
parseArgs(int argc, char **argv,
          std::initializer_list<const char *> extra = {})
{
    Args args;
    unsigned requested = 0;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            args.quick = true;
            continue;
        }
        if (arg == "--jobs") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: --jobs needs a value\n",
                             argv[0]);
                std::exit(2);
            }
            long parsed = std::strtol(argv[++i], nullptr, 10);
            if (parsed <= 0) {
                std::fprintf(stderr,
                             "%s: --jobs wants a positive integer, "
                             "got '%s'\n",
                             argv[0], argv[i]);
                std::exit(2);
            }
            requested = static_cast<unsigned>(parsed);
            continue;
        }
        bool known = false;
        for (const char *f : extra) {
            if (arg == f) {
                args.flags.push_back(arg);
                known = true;
                break;
            }
        }
        if (known)
            continue;
        std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0],
                     arg.c_str());
        std::fprintf(stderr, "accepted: --quick, --jobs N");
        for (const char *f : extra)
            std::fprintf(stderr, ", %s", f);
        std::fprintf(stderr, "\n");
        std::exit(2);
    }
    args.jobs = sim::resolveJobs(requested);
    return args;
}

/** The benchmark list (full suite or a quick subset). */
inline std::vector<workloads::WorkloadInfo>
benchSuite(bool quick)
{
    const auto &all = workloads::allWorkloads();
    if (!quick)
        return all;
    std::vector<workloads::WorkloadInfo> subset;
    for (size_t i = 0; i < all.size(); i += 3)
        subset.push_back(all[i]);
    return subset;
}

/** Registry entries for an explicit name list (ablation subsets). */
inline std::vector<workloads::WorkloadInfo>
suiteFromNames(const std::vector<std::string> &names)
{
    std::vector<workloads::WorkloadInfo> out;
    for (const std::string &name : names)
        for (const auto &info : workloads::allWorkloads())
            if (info.name == name) {
                out.push_back(info);
                break;
            }
    return out;
}

/** One named machine configuration (a column of a results table). */
struct ConfigVariant
{
    std::string name;
    sim::MachineConfig cfg;
};

/**
 * Wall-clock scope + JSON emission for one bench binary. Construct
 * before the work, call finish() after the last cell: it stamps the
 * suite wall time, writes BENCH_<name>.json and prints a one-line
 * timing summary.
 */
class SuiteRun
{
  public:
    SuiteRun(const char *bench_name, const Args &args)
        : json_(bench_name, args.jobs, args.quick),
          start_(std::chrono::steady_clock::now())
    {
    }

    sim::BenchJson &json() { return json_; }

    void
    finish()
    {
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
        json_.setSuiteWallSeconds(wall);
        std::string path = json_.writeFile();
        std::printf("\n[bench] %zu runs, %u jobs, wall %.2fs%s%s\n",
                    json_.runCount(), json_.jobs(), wall,
                    path.empty() ? "" : ", wrote ",
                    path.c_str());
    }

  private:
    sim::BenchJson json_;
    std::chrono::steady_clock::time_point start_;
};

/** SSMT_ISOLATE=1 routes every bench cell through the subprocess
 *  isolation path (sandboxed child per cell). Counters are identical
 *  either way; only the host timings differ. */
inline bool
isolateRequested()
{
    const char *env = std::getenv("SSMT_ISOLATE");
    return env && *env != '\0' && std::string(env) != "0";
}

/**
 * Run every (workload, variant) cell as one BatchRunner batch and
 * return the results as [workload][variant], recording each cell
 * into @p json. Each workload's program is built once and shared by
 * its variants. Results are independent of the worker count and of
 * whether SSMT_ISOLATE rides the cells in child processes. Any
 * failed cell — including an invariant violation — prints the batch
 * failure summary and exits 1.
 */
inline std::vector<std::vector<sim::BatchResult>>
runMatrix(const std::vector<workloads::WorkloadInfo> &suite,
          const std::vector<ConfigVariant> &variants, const Args &args,
          sim::BenchJson &json)
{
    std::vector<sim::BatchJob> batch;
    batch.reserve(suite.size() * variants.size());
    for (const auto &info : suite) {
        isa::Program program = info.make({});
        for (const ConfigVariant &variant : variants)
            batch.push_back({info.name + "/" + variant.name, program,
                             variant.cfg});
    }
    sim::BatchPolicy policy;
    policy.isolate = isolateRequested();
    std::vector<sim::BatchResult> flat =
        sim::BatchRunner(args.jobs).run(batch, policy);
    std::string failures = sim::BatchRunner::failureSummary(batch, flat);
    if (!failures.empty()) {
        std::fputs(failures.c_str(), stderr);
        std::exit(1);
    }

    std::vector<std::vector<sim::BatchResult>> results(suite.size());
    for (size_t w = 0; w < suite.size(); w++) {
        for (size_t v = 0; v < variants.size(); v++) {
            sim::BatchResult &cell = flat[w * variants.size() + v];
            json.addRun(suite[w].name, variants[v].name,
                        cell.hostSeconds, cell.stats);
            results[w].push_back(std::move(cell));
        }
    }
    return results;
}

inline void
hr(int width = 78)
{
    std::string line(width, '-');
    std::printf("%s\n", line.c_str());
}

} // namespace bench
} // namespace ssmt

#endif // SSMT_BENCH_BENCH_UTIL_HH
