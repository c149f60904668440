/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries.
 *
 * Every bench parses its flags in one pass (parseArgs). A results
 * table is a grid of (workload, config variant) cells, and
 * BenchRun::grid runs it as one sim::runCampaign: a bench cell has
 * the same config builder, store key and ssmt-campaign-v1 manifest
 * as an `ssmt_campaign run` cell.
 */

#ifndef SSMT_BENCH_BENCH_UTIL_HH
#define SSMT_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "sim/batch_runner.hh"
#include "sim/campaign.hh"
#include "sim/fsio.hh"
#include "sim/jobs.hh"
#include "sim/machine_config.hh"
#include "sim/sim_runner.hh"
#include "workloads/workloads.hh"

namespace ssmt
{
namespace bench
{

/**
 * Flags shared by every bench binary (see usage()) plus any
 * binary-specific flags passed via @p extra. Unknown flags are an
 * error, not a silent no-op.
 */
struct Args
{
    bool quick = false;
    unsigned jobs = 1;                  ///< resolved worker count
    std::string dir;                    ///< --dir; empty = temporary
    std::vector<std::string> flags;     ///< extra flags seen

    bool
    has(const char *flag) const
    {
        return std::find(flags.begin(), flags.end(), flag) != flags.end();
    }
};

inline void
usage(std::FILE *out, const char *argv0,
      std::initializer_list<const char *> extra)
{
    std::fprintf(out, "usage: %s [--quick] [--jobs N] [--dir D]", argv0);
    for (const char *f : extra)
        std::fprintf(out, " [%s]", f);
    std::fputs(
        "\n  --quick   run a third of the suite for smoke checks\n"
        "  --jobs N  worker threads (default: SSMT_JOBS, then all cores)\n"
        "  --dir D   keep the campaign (journal, store, manifest.json)\n"
        "            in D, not in a temporary directory; a rerun serves\n"
        "            the stored cells, a different grid is refused.\n"
        "            Store keys do not hash the simulator code: clear D\n"
        "            after changing the simulator.\n",
        out);
}

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
        if (arg == "--help" || arg == "-h") {
            usage(stdout, argv[0], extra);
            std::exit(0);
        }
        if (arg == "--jobs" || arg == "--dir") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n",
                             argv[0], arg.c_str());
                std::exit(2);
            }
            if (arg == "--dir") {
                args.dir = argv[++i];
                continue;
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
        if (std::find(extra.begin(), extra.end(), arg) != extra.end()) {
            args.flags.push_back(arg);
            continue;
        }
        std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0],
                     arg.c_str());
        usage(stderr, argv[0], extra);
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

/**
 * One bench binary's run: its wall clock, its campaign and the
 * `[bench]` footer. Construct before the work and call finish()
 * after the last table.
 */
class BenchRun
{
  public:
    BenchRun(std::string name, const Args &args)
        : name_(std::move(name)), args_(args),
          start_(std::chrono::steady_clock::now())
    {
    }

    /**
     * Run every (workload, variant) cell of @p suite, each variant's
     * settings applied to the default MachineConfig, as one
     * sim::runCampaign named after the bench, in --dir or else in a
     * temporary directory. @return [workload][variant] results,
     * independent of the worker count. A failed cell or a refused
     * spec (a --dir journal recording another grid) exits 1.
     */
    std::vector<std::vector<sim::BatchResult>>
    grid(const std::vector<workloads::WorkloadInfo> &suite,
         const std::vector<sim::CampaignVariant> &variants)
    {
        sim::CampaignSpec spec;
        spec.name = name_;
        for (const auto &info : suite)
            spec.workloads.push_back(info.name);
        spec.variants = variants;

        // A fresh directory, so a default run never reads cells
        // stored by another build.
        std::string dir =
            args_.dir.empty() ? sim::makeTempDir("ssmt-bench-" + name_)
                              : args_.dir;
        if (dir.empty()) {
            std::perror("bench: temporary directory");
            std::exit(1);
        }
        sim::CampaignOptions opts;
        opts.jobs = args_.jobs;
        sim::CampaignOutcome outcome;
        std::string error;
        try {
            outcome = sim::runCampaign(spec, dir, opts);
            if (!outcome.completed || outcome.failed > 0)
                error = "campaign did not finish cleanly:\n" +
                        outcome.failureSummary;
        } catch (const sim::SimError &err) {
            error = err.what();
        }
        if (args_.dir.empty())
            std::filesystem::remove_all(dir);
        if (!error.empty()) {
            std::fprintf(stderr, "bench %s: %s\n", name_.c_str(),
                         error.c_str());
            std::exit(1);
        }
        cells_ += outcome.cells.size();
        cacheHits_ += outcome.cacheHits;
        manifest_ = outcome.manifestPath;

        std::vector<std::vector<sim::BatchResult>> results(suite.size());
        for (size_t w = 0; w < suite.size(); w++)
            for (size_t v = 0; v < variants.size(); v++)
                results[w].push_back(std::move(
                    outcome.results[w * variants.size() + v]));
        return results;
    }

    /** Print the footer: cells and cache hits of the campaign (if
     *  the bench ran one), jobs, wall time and the manifest kept in
     *  --dir. */
    void
    finish() const
    {
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
        std::printf("\n[bench] ");
        if (!manifest_.empty())
            std::printf("%zu cells (%zu cached), ", cells_, cacheHits_);
        std::printf("%u jobs, wall %.2fs", args_.jobs, wall);
        if (!args_.dir.empty())
            std::printf(", %s%s",
                        manifest_.empty() ? "--dir unused: no campaign"
                                          : "manifest ",
                        manifest_.c_str());
        std::printf("\n");
    }

  private:
    std::string name_;
    Args args_;
    std::chrono::steady_clock::time_point start_;
    size_t cells_ = 0;
    size_t cacheHits_ = 0;
    std::string manifest_;
};

inline void
hr(int width = 78)
{
    std::string line(width, '-');
    std::printf("%s\n", line.c_str());
}

} // namespace bench
} // namespace ssmt

#endif // SSMT_BENCH_BENCH_UTIL_HH
