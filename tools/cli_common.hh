/**
 * @file
 * Shared command-line plumbing for the ssmt_* tools, the bench
 * binaries (bench_util.hh's parseArgs) and ssmt_sim.
 *
 * Every tool used to carry its own copy of the same argv loop,
 * usage() trampoline and comma-splitter; this header is the single
 * implementation. An ArgParser is constructed from a flag table and
 * handles, uniformly across tools:
 *
 *   - value flags ("--golden-dir D"), boolean flags ("--update"),
 *     repeatable flags (every occurrence kept, e.g. --allow),
 *     aliases ("--workload" / "--workloads"), and positionals,
 *   - `--help` / `-h`: print usage, exit 0,
 *   - `--list-workloads`: print every registered workload name (one
 *     per line), exit 0 — so scripts can enumerate the suite without
 *     parsing any other tool output,
 *   - diagnostics: unknown flags, missing values and malformed
 *     numbers print to stderr and exit 2 (the shared "bad usage"
 *     status).
 *
 * Plus the tool-side helpers the parsers feed: splitCommas and
 * workload-name resolution against the registry ("all" expands to
 * the full suite; unknown names exit 2). File I/O goes through
 * sim/fsio.hh.
 */

#ifndef SSMT_TOOLS_CLI_COMMON_HH
#define SSMT_TOOLS_CLI_COMMON_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bpred/direction_predictor.hh"
#include "workloads/workloads.hh"

namespace ssmt
{
namespace cli
{

/** One flag a tool accepts. */
struct FlagSpec
{
    const char *name;            ///< canonical spelling, e.g. "--jobs"
    const char *alias = nullptr; ///< optional second spelling
    bool takesValue = false;
    /** true: keep every occurrence (see ArgParser::all); false: the
     *  last occurrence wins (the usual CLI override behavior). */
    bool repeatable = false;
};

class ArgParser
{
  public:
    /**
     * Parse @p argv against @p specs. Exits directly for the
     * built-ins (--help: usage to stderr, status 0;
     * --list-workloads: workload names to stdout, status 0) and for
     * parse errors (status 2). Arguments not starting with '-' are
     * collected as positionals.
     */
    ArgParser(int argc, char **argv, std::string usage_text,
              std::vector<FlagSpec> specs);

    const std::string &argv0() const { return argv0_; }

    /** True when the flag (canonical name) appeared at all. */
    bool has(const std::string &flag) const;

    /** Last value of @p flag, or @p def when absent. */
    std::string str(const std::string &flag,
                    const std::string &def = "") const;

    /** Last value of @p flag parsed as a decimal uint64_t (anything
     *  but digits, a sign included, or a value past 2^64-1 exits 2),
     *  or @p def when absent. */
    uint64_t u64(const std::string &flag, uint64_t def = 0) const;

    /** Last value of @p flag parsed as a double (exits 2 on
     *  malformed text), or @p def when absent. */
    double dbl(const std::string &flag, double def = 0.0) const;

    /** Every value of a repeatable flag, in order (empty if none). */
    const std::vector<std::string> &
    all(const std::string &flag) const;

    const std::vector<std::string> &positionals() const
    {
        return positionals_;
    }

    /** Print "<argv0>: <message>" to stderr, then usage, exit 2. */
    [[noreturn]] void fail(const std::string &message) const;

    /** Print the usage text to stderr and exit with @p status. */
    [[noreturn]] void usage(int status) const;

  private:
    std::string argv0_;
    std::string usage_;
    std::vector<FlagSpec> specs_;
    std::set<std::string> present_;
    std::map<std::string, std::vector<std::string>> values_;
    std::vector<std::string> positionals_;

    const FlagSpec *findSpec(const std::string &arg) const;
};

/**
 * Resolve a `--jobs N|auto` flag. The default (flag absent) and the
 * explicit "auto" spelling both mean "use every core": auto maps to
 * sim::hostThreads(), an absent flag defers to the shared
 * sim::resolveJobs chain (SSMT_JOBS, then host cores) so the
 * environment override keeps working. A literal 0, a value past
 * the range of unsigned or a malformed number exits 2.
 */
unsigned jobsFlag(const ArgParser &args,
                  const std::string &flag = "--jobs");

/**
 * Resolve a `--predictor NAME` flag into a direction-backend kind
 * (hybrid, tage, perceptron — see bpred::parsePredictorKind). The
 * flag absent means the default hybrid; an unknown name exits 2.
 * The config fingerprint names the backend, so results stored
 * under different --predictor values never serve each other.
 */
bpred::PredictorKind
predictorFlag(const ArgParser &args,
              const std::string &flag = "--predictor");

/** Parse @p text as ArgParser::u64 does: plain decimal digits (no
 *  blanks, no sign) up to 2^64-1. @return false otherwise, leaving
 *  @p out alone. */
bool parseU64(const std::string &text, uint64_t *out);

/** Split "a,b,c" into {"a","b","c"}, dropping empty segments. */
std::vector<std::string> splitCommas(const std::string &arg);

/** Expand a --workloads argument: "all" becomes every registered
 *  name, anything else is comma-split verbatim. */
std::vector<std::string> expandWorkloadList(const std::string &text);

/** Resolve names to registry entries, preserving order. Unknown
 *  names print a diagnostic and exit 2. */
std::vector<workloads::WorkloadInfo>
resolveWorkloads(const std::vector<std::string> &names,
                 const std::string &argv0);

} // namespace cli
} // namespace ssmt

#endif // SSMT_TOOLS_CLI_COMMON_HH

