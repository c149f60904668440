/**
 * @file
 * Crash-contained experiment campaigns: a durable, resumable layer
 * over BatchRunner for the workload × config variant × seed grids
 * every paper figure and bench table is built from.
 *
 * Three pieces compose into the durability story:
 *
 *  - ResultStore — a content-addressed store of successful cell
 *    results, one canonical ssmt-job-result-v1 document per file,
 *    keyed by (programHash, configFingerprint, mode, seed) and
 *    committed with atomic write-then-rename. Only successes are
 *    stored: a failed cell is journaled and written to the manifest
 *    but never stored, so running the campaign again re-executes
 *    exactly its failed cells, under whatever cycle budget and
 *    isolation limits the new run sets. That rerun is the retry. A
 *    success never depends on those limits (an isolated run equals
 *    an in-process one, a run that finishes inside a budget equals
 *    the unbudgeted run), so the key leaves them out.
 *
 *  - CampaignJournal — an append-only JSONL log (header with the
 *    full spec, then one line per finished cell). An executed cell's
 *    line is fsynced as it is written, and a run's cache hits share
 *    one write and one fsync, so a `kill -9` at any instant loses at
 *    most the lines being written. Reading tolerates a truncated
 *    final line.
 *
 *  - runCampaign — enumerate the spec's cells in a fixed order,
 *    serve already-stored cells as cache hits, run the rest once
 *    through BatchRunner (optionally subprocess-isolated via
 *    BatchPolicy::isolate), storing each success and journaling
 *    each cell the moment it finishes, and finally write the
 *    deterministic ssmt-campaign-v1 manifest.
 *
 * The keystone property: kill a campaign at any point, run it again
 * with the same spec, at any worker count, and the final manifest is
 * byte-identical to an uninterrupted run — stored successes replay
 * from the store, the rest (failures included) run fresh, and a
 * deterministic failure fails the same way again. The manifest is
 * written from the cells' results: cache hits as decoded from the
 * store, executed cells as computed (the codec round-trips them byte
 * for byte). It records only what a simulation computed, which
 * excludes every
 * nondeterministic quantity (host seconds, cache-hit flags,
 * timestamps, stderr warnings).
 */

#ifndef SSMT_SIM_CAMPAIGN_HH
#define SSMT_SIM_CAMPAIGN_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/batch_runner.hh"

namespace ssmt
{
namespace sim
{

extern const char kCampaignSchema[];        ///< "ssmt-campaign-v1"
extern const char kCampaignJournalSchema[]; ///< journal header schema

/** One named machine configuration of a campaign grid (a column of
 *  a bench table): `key=value` overrides applied in order through
 *  applyConfigSetting, on top of the cell's default config. */
struct CampaignVariant
{
    std::string name;               ///< non-empty, unique, no '/'
    std::vector<std::string> set;
};

/** The complete, serializable description of one campaign: the cell
 *  grid plus every knob that shapes results. Two specs are the same
 *  campaign iff their specJson() is byte-identical — that string is
 *  what the journal header pins and resume verifies. */
struct CampaignSpec
{
    std::string name = "campaign";
    std::vector<std::string> workloads;
    /** Shorthand for one variant per mode, named after it, setting
     *  only `mode`. A spec sets modes or variants, never both. */
    std::vector<Mode> modes;
    std::vector<CampaignVariant> variants;
    /** Fault-seed axis; the default single 0 means "one cell per
     *  (workload, mode), using the fault plan's own seed". */
    std::vector<uint64_t> seeds = {0};
    uint64_t scale = 1;             ///< WorkloadParams::scale
    uint64_t sampleInterval = 0;    ///< metrics series capture
    uint64_t maxInsts = 0;          ///< 0 = MachineConfig default
    /** Fault plan applied to every cell; a non-zero cell seed
     *  overrides plan.seed. site None = no injection. */
    FaultPlan faults;

    // ---- Failure policy (mirrors BatchPolicy) ----
    uint64_t cycleBudget = 0;
    bool isolate = false;
    /** Wall deadline per isolated cell, in ms (canonical specs are
     *  integers-only; BatchPolicy's seconds are derived). */
    uint64_t wallDeadlineMs = 0;
    uint64_t memLimitMb = 0;
    uint64_t cpuLimitSeconds = 0;

    /** Crash-injection test hook: cell name -> deliberate child
     *  failure (isolate mode; see CrashKind). Part of the spec so a
     *  resumed crash test replays identically. */
    std::vector<std::pair<std::string, CrashKind>> crashes;
};

/** Canonical serialization of @p spec (fixed field order, integers
 *  only) — the identity the journal pins. */
std::string specJson(const CampaignSpec &spec);

/** Inverse of specJson. Throws SimError(ParseError) on malformed
 *  text or unknown mode/crash/fault-site names. Variant entries are
 *  checked by runCampaign, not here. */
CampaignSpec parseSpec(const std::string &text);

/** One cell of the campaign grid, in enumeration order
 *  (workload-major, then variant, then seed). */
struct CampaignCell
{
    std::string name;       ///< "<workload>/<variant>/s<seed>"
    std::string workload;
    CampaignVariant variant;
    uint64_t seed = 0;
    CrashKind crash = CrashKind::None;
};

/** Enumerate @p spec's cells in canonical order. */
std::vector<CampaignCell> campaignCells(const CampaignSpec &spec);

/** The MachineConfig cell @p cell runs under: the spec's run knobs,
 *  then the variant's settings (a bad one throws ConfigInvalid). */
MachineConfig cellConfig(const CampaignSpec &spec,
                         const CampaignCell &cell);

/** The BatchPolicy the spec's failure knobs translate to. */
BatchPolicy campaignPolicy(const CampaignSpec &spec,
                           const std::atomic<bool> *cancel);

/**
 * Content-addressed store of successful cell results: one atomic
 * file per key under `<dir>/`, holding the cell's canonical
 * ssmt-job-result-v1 document. Keys bind the program image, the
 * structural config, the mechanism mode, the seed axis and the
 * retire cap, so a changed workload generator, knob or cap can never
 * serve a stale hit. runCampaign saves only successes (and removes
 * a failure an older store kept when the cell fails again), and
 * load() serves only successes.
 */
class ResultStore
{
  public:
    explicit ResultStore(std::string dir) : dir_(std::move(dir)) {}

    const std::string &dir() const { return dir_; }

    /** "cell-<programHash>-<fingerprintHash>-<mode>-s<seed>.json",
     *  with "-i<maxInsts>" before ".json" when the config's retire
     *  cap is not the MachineConfig default. */
    static std::string cellKey(uint64_t program_hash,
                               const MachineConfig &config,
                               uint64_t seed);

    /** Load and decode the document under @p key. @return false when
     *  absent; an unreadable/corrupt document is treated as absent
     *  (warned, so the cell simply re-runs), and so is a stored
     *  failure (older stores kept failures too). */
    bool load(const std::string &key, const MachineConfig &config,
              BatchResult *result) const;

    /** Atomically persist @p result under @p key. */
    bool save(const std::string &key, const BatchResult &result);

    /** Every stored key, sorted. */
    std::vector<std::string> list() const;

    bool remove(const std::string &key);

  private:
    std::string dir_;
    std::string pathFor(const std::string &key) const;
};

/** One journal line: a cell that finished (or was served from the
 *  store) with its store key and outcome. */
struct JournalCell
{
    std::string cell;
    std::string key;
    ErrorCode errorCode = ErrorCode::None;
    bool cached = false;
};

/** Parsed journal contents. */
struct JournalContents
{
    bool exists = false;    ///< file present on disk
    bool headerOk = false;  ///< first line parsed with the schema
    std::string spec;       ///< the header's embedded specJson
    std::vector<JournalCell> cells;
    bool ended = false;     ///< an end marker was seen
    /** Lines that failed to parse mid-file (a truncated *final* line
     *  is expected after a crash and not counted here). */
    size_t corruptLines = 0;
};

/**
 * The append-only campaign journal. Every append writes complete
 * JSONL lines and fsyncs before returning, so the file is a prefix of
 * the truth at every instant.
 */
class CampaignJournal
{
  public:
    explicit CampaignJournal(std::string path)
        : path_(std::move(path))
    {
    }
    ~CampaignJournal();

    CampaignJournal(const CampaignJournal &) = delete;
    CampaignJournal &operator=(const CampaignJournal &) = delete;

    const std::string &path() const { return path_; }

    /** Parse @p path; tolerant of a missing file and of a truncated
     *  final line (the kill -9 signature). */
    static JournalContents read(const std::string &path);

    /** Open for appending (creating if needed; @p truncate restarts
     *  the journal). @return false on I/O failure. */
    bool open(bool truncate);

    bool appendHeader(const std::string &spec_json);
    bool appendCell(const JournalCell &cell);
    /** Append every line of @p cells with one write and one fsync. */
    bool appendCells(const std::vector<JournalCell> &cells);
    bool appendEnd();

    void close();

  private:
    std::string path_;
    int fd_ = -1;

    bool appendLine(const std::string &line);
};

/** Knobs for one runCampaign invocation (not part of the identity —
 *  jobs/cancel/force never change results). */
struct CampaignOptions
{
    unsigned jobs = 0;      ///< BatchRunner worker resolution
    /** Cooperative stop (SIGINT / test hook): finish in-flight
     *  cells, journal them, skip the rest and the manifest. */
    const std::atomic<bool> *cancel = nullptr;
    /** Restart (truncate journal) on a spec mismatch instead of
     *  refusing. */
    bool force = false;
    /** Progress sink (nullable); one human-readable line per event. */
    std::function<void(const std::string &)> log;
    /**
     * Per-cell completion hook (nullable): fired once per finished
     * cell — cache hits during the replay pass and fresh results as
     * they land — with the cell, its store key, the decoded result
     * and whether it was served from the store. Fresh cells call it
     * from the batch's threads in-process, or from the calling
     * thread under isolation, serialized with the journal/store
     * critical section either way; progress reporting and per-cell
     * timing hook in here.
     */
    std::function<void(const CampaignCell &, const std::string &key,
                       const BatchResult &, bool cached)>
        onCell;
};

/** What one runCampaign invocation did. */
struct CampaignOutcome
{
    std::vector<CampaignCell> cells;    ///< canonical order
    std::vector<BatchResult> results;   ///< per cell (default slot
                                        ///< when cancelled unrun)
    size_t cacheHits = 0;   ///< cells served from the store
    size_t executed = 0;    ///< cells simulated by this invocation
    size_t failed = 0;      ///< cells whose result is an error
    /** Every cell was served or ran (failed cells included), every
     *  success was stored, and the manifest was written. */
    bool completed = false;
    std::string manifestPath;   ///< written iff completed
    /** One line per failed cell ("" when none failed). */
    std::string failureSummary;
};

/**
 * Run (or resume — same call) @p spec under `<dir>/`:
 * `journal.jsonl`, `store/`, and on completion `manifest.json`.
 * Throws SimError(UnknownWorkload) on an unknown workload,
 * SimError(ConfigInvalid) on an invalid spec (scale 0, modes and
 * variants together, a bad variant name or setting, two cells with
 * one name) or a journal
 * recording a *different* spec (unless opts.force), and
 * SimError(IoError) when the directory cannot be prepared.
 */
CampaignOutcome runCampaign(const CampaignSpec &spec,
                            const std::string &dir,
                            const CampaignOptions &opts);

/**
 * The deterministic ssmt-campaign-v1 manifest for @p spec given each
 * cell's result (in campaignCells order): per cell its errorCode,
 * error, counters and fault stats, then the cell and
 * failure totals. Contains no host timings, cache-hit flags,
 * timestamps or warnings.
 */
std::string campaignManifest(const CampaignSpec &spec,
                             const std::vector<CampaignCell> &cells,
                             const std::vector<BatchResult> &results);

/** Delete store entries not referenced by @p spec's cell keys.
 *  Throws like runCampaign on an invalid spec, before removing
 *  anything. @return the keys removed. */
std::vector<std::string> campaignGc(const CampaignSpec &spec,
                                    const std::string &dir);

/**
 * Journal lag: how many of @p store_keys have no journal line — i.e.
 * cells whose result was persisted to the store but whose journal
 * append never landed (the window a crash between store.save and
 * journal.appendCell leaves behind, at most one cell wide per
 * worker). A large lag on a live campaign means the journaling side
 * is wedged; 0 means store and journal agree. `ssmt_campaign status`
 * reports this so an operator can tell a wedged campaign from a slow
 * one.
 */
size_t journalLag(const JournalContents &journal,
                  const std::vector<std::string> &store_keys);

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_CAMPAIGN_HH
