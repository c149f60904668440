/**
 * @file
 * Golden-stats snapshots: the full sim::Stats of one workload run
 * under a pinned MachineConfig, serialized canonically so that any
 * later commit can be diffed against it counter by counter.
 *
 * Schema (`"schema": "ssmt-golden-v1"`, written by sim::SnapshotWriter
 * in its spaced layout, the root and `counters` one item per line):
 *
 *   {
 *     "schema": "ssmt-golden-v1",
 *     "workload": "mcf_2k",
 *     "config": "microthread-default",
 *     "counters": { "cycles": 123, ..., "build.built": 4, ... }
 *   }
 *
 * The serialization is *canonical*: integers only (derived floats
 * like IPC are recomputed, never stored), a fixed field order, and
 * no host-dependent values (no timings, no thread counts) — two runs
 * that simulated the same machine produce byte-identical documents
 * regardless of --jobs. The committed `golden/<workload>.json` files
 * plus tools/ssmt_statsdiff and tools/ssmt_verify_golden form the
 * regression safety net for perf refactors: any drifted counter must
 * either be a bug or an entry in the allowlist. The campaign
 * ssmt_verify_golden runs (verifyGoldenSpec) and its check
 * (checkVerifyGolden) live here too, so tests reach them.
 */

#ifndef SSMT_SIM_GOLDEN_HH
#define SSMT_SIM_GOLDEN_HH

#include <string>
#include <utility>
#include <vector>

#include "sim/machine_config.hh"
#include "sim/stats.hh"

namespace ssmt
{
namespace sim
{

extern const char kGoldenSchema[];      ///< "ssmt-golden-v1"
extern const char kGoldenConfigName[];  ///< "microthread-default"

/** The pinned configuration golden snapshots are captured under:
 *  the paper's Table 3 machine running the full mechanism. */
MachineConfig goldenMachineConfig();

/**
 * Every counter of @p stats as (name, value) pairs in canonical
 * order; builder counters appear as "build.<field>". This is the
 * single authoritative enumeration of Stats fields — golden
 * serialization, the diff tool and the tests all consume it, and a
 * static_assert in golden.cc forces it to grow with the struct.
 */
std::vector<std::pair<std::string, uint64_t>>
flattenStats(const Stats &stats);

/** Values-only form of flattenStats (same canonical order), for the
 *  compact encodings (the job-result codec) that pair it with
 *  statsFromValues instead of repeating the names. */
std::vector<uint64_t> statsValues(const Stats &stats);

/** Inverse of statsValues. Throws SimError(ParseError) when
 *  @p values does not have exactly one value per Stats field. */
void statsFromValues(Stats &out, const std::vector<uint64_t> &values);

/** One golden snapshot. */
struct GoldenRun
{
    std::string workload;
    std::string config = kGoldenConfigName;
    Stats stats;
};

/** Canonical serialization of @p run (see file header). */
std::string goldenJson(const GoldenRun &run);

/**
 * Parse a golden document. Unknown counter names are an error — a
 * removed or renamed Stats field must be a deliberate regeneration,
 * not a silent zero. @return true on success; @p err receives the
 * reason otherwise.
 */
bool parseGolden(const std::string &text, GoldenRun &out,
                 std::string *err = nullptr);

/** `<workload>.json` — the file name a snapshot is stored under. */
std::string goldenFileName(const std::string &workload);

/** One counter whose value drifted between two runs. */
struct CounterDrift
{
    std::string counter;
    uint64_t golden = 0;
    uint64_t candidate = 0;

    /** Signed relative drift; +inf-free: 0-baseline drift is 1.0. */
    double
    relative() const
    {
        if (golden == 0)
            return candidate == 0 ? 0.0 : 1.0;
        return (static_cast<double>(candidate) -
                static_cast<double>(golden)) /
               static_cast<double>(golden);
    }
};

/** Every counter that differs between @p golden and @p candidate,
 *  in canonical order. */
std::vector<CounterDrift> diffStats(const Stats &golden,
                                    const Stats &candidate);

/**
 * Allowlist for intentional stat changes. One entry per line:
 * a counter name (allowed for every workload) or
 * `<workload>:<counter>`; `#` starts a comment. The workflow: a PR
 * that intentionally changes a counter adds it here, regenerates the
 * snapshots, and removes the entry again in the same commit — the
 * list documents the change while keeping every *other* counter
 * locked.
 */
struct DriftAllowlist
{
    std::vector<std::string> entries;

    bool allows(const std::string &workload,
                const std::string &counter) const;

    static DriftAllowlist parse(const std::string &text);

    /** Load from @p path; a missing file is an empty allowlist
     *  (@p existed reports which, when non-null). */
    static DriftAllowlist load(const std::string &path,
                               bool *existed = nullptr);
};

/**
 * Write @p run to `<dir>/<workload>.json`. @return the path
 * written, or an empty string on I/O failure.
 */
std::string writeGoldenFile(const std::string &dir,
                            const GoldenRun &run);

struct CampaignSpec;
struct CampaignOutcome;

/** Faults each fault-site cell of the verify-golden campaign arms. */
constexpr uint64_t kVerifyFaultCount = 8;

/**
 * The verify-golden campaign over @p workloads. Its variants, in
 * order: `microthread`, the golden cell (goldenMachineConfig(); the
 * config and store key of fig7_realistic's `microthread` cell),
 * then `baseline`, `oracle-difficult-path` and
 * `oracle-all-branches`, and with @p faults one microthread variant
 * per fault site, named after the site, arming kVerifyFaultCount
 * faults at the FaultPlan's default seed and period.
 */
CampaignSpec verifyGoldenSpec(const std::vector<std::string> &workloads,
                              bool faults);

/** What checkVerifyGolden found. */
struct VerifyReport
{
    int drifted = 0;   ///< unallowed drifts and non-canonical files
    int allowed = 0;   ///< allowlisted counter drifts
    int missing = 0;   ///< snapshots absent, unparsable or pinned
                       ///< to another config
    int failedRelations = 0;
    /** Faults injected per fault-site variant, summed over the
     *  workloads, in spec order. */
    std::vector<std::pair<std::string, uint64_t>> injected;
    std::string log;   ///< one line per finding

    /** 2 with a snapshot missing, 1 with any drift or failed
     *  relation, else 0. */
    int exitStatus() const;
};

/**
 * Check a verify-golden campaign whose every cell succeeded. For
 * each workload its `microthread` cell is the reference:
 *  - golden: every counter against `<golden_dir>/<workload>.json`
 *    (@p allowlist applies), then the canonical bytes;
 *  - arch: every other cell's ArchSignature equals the reference's,
 *    so neither a mode nor a fault changes the committed stream;
 *  - modes: a full oracle uses no misprediction, used mispredictions
 *    are monotone (oracle <= microthread <= baseline) and baseline's
 *    equal its hardware mispredictions.
 * Every fault site must inject at least one fault over the
 * workloads.
 */
VerifyReport checkVerifyGolden(const CampaignOutcome &outcome,
                               const std::string &golden_dir,
                               const DriftAllowlist &allowlist);

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_GOLDEN_HH
