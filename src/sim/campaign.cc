#include "sim/campaign.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>

#include <fcntl.h>
#include <unistd.h>

#include "sim/fsio.hh"
#include "sim/golden.hh"
#include "sim/job_codec.hh"
#include "sim/json_text.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "workloads/workloads.hh"

namespace ssmt
{
namespace sim
{

const char kCampaignSchema[] = "ssmt-campaign-v1";
const char kCampaignJournalSchema[] = "ssmt-campaign-journal-v1";

namespace
{

uint64_t
fnv1a(const std::string &text)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
hex16(uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/** The spec's canonical fields, emitted into an open object — shared
 *  by specJson (the journal identity) and the manifest's embedded
 *  spec, so the two can never drift apart. */
void
writeSpecFields(SnapshotWriter &w, const CampaignSpec &spec)
{
    w.str("name", spec.name);
    w.beginArray("workloads");
    for (const std::string &workload : spec.workloads) {
        w.beginObject();
        w.str("name", workload);
        w.endObject();
    }
    w.endArray();
    w.beginArray("modes");
    for (Mode mode : spec.modes) {
        w.beginObject();
        w.str("name", modeName(mode));
        w.endObject();
    }
    w.endArray();
    // Written only when set, so every variant-less spec (and with it
    // each journal, cell name, store key and manifest) keeps its
    // bytes.
    if (!spec.variants.empty()) {
        w.beginArray("variants");
        for (const CampaignVariant &variant : spec.variants) {
            w.beginObject();
            w.str("name", variant.name);
            w.beginArray("set");
            for (const std::string &entry : variant.set)
                w.str(entry);
            w.endArray();
            w.endObject();
        }
        w.endArray();
    }
    w.u64Array("seeds", spec.seeds);
    w.u64("scale", spec.scale);
    w.u64("maxInsts", spec.maxInsts);
    w.beginObject("faults");
    w.str("site", faultSiteName(spec.faults.site));
    w.u64("seed", spec.faults.seed);
    w.u64("count", spec.faults.count);
    w.u64("startCycle", spec.faults.startCycle);
    w.u64("period", spec.faults.period);
    w.endObject();
    w.u64("cycleBudget", spec.cycleBudget);
    w.boolean("isolate", spec.isolate);
    w.u64("wallDeadlineMs", spec.wallDeadlineMs);
    w.u64("memLimitMb", spec.memLimitMb);
    w.u64("cpuLimitSeconds", spec.cpuLimitSeconds);
    w.beginArray("crashes");
    for (const auto &crash : spec.crashes) {
        w.beginObject();
        w.str("cell", crash.first);
        w.str("kind", crashKindName(crash.second));
        w.endObject();
    }
    w.endArray();
}

[[noreturn]] void
specParseFail(const std::string &what)
{
    throw SimError(ErrorCode::ParseError, "campaign-spec", what);
}

[[noreturn]] void
specInvalid(const std::string &what)
{
    throw SimError(ErrorCode::ConfigInvalid, "campaign", what);
}

/** Reject what runCampaign cannot run (and what campaignGc cannot
 *  tell the live cells of), before anything touches the campaign
 *  directory. */
void
checkSpec(const CampaignSpec &spec)
{
    if (spec.modes.empty() && spec.variants.empty())
        specInvalid("spec needs modes or variants; it has neither");
    if (!spec.modes.empty() && !spec.variants.empty())
        specInvalid("spec needs modes or variants, not both");
    if (spec.workloads.empty() || spec.seeds.empty())
        specInvalid("spec needs at least one workload and one seed");
    for (const std::string &workload : spec.workloads) {
        bool known = false;
        for (const auto &info : workloads::allWorkloads())
            known = known || info.name == workload;
        if (!known) {
            throw SimError(ErrorCode::UnknownWorkload, "campaign",
                           "unknown workload '" + workload + "'");
        }
    }
    // Scale 0 would wrap the workloads' pass counters and run every
    // cell to the maxInsts safety stop.
    if (spec.scale == 0)
        specInvalid("scale must be >= 1");
    for (const CampaignVariant &variant : spec.variants) {
        if (variant.name.empty() ||
            variant.name.find('/') != std::string::npos) {
            specInvalid("variant name '" + variant.name +
                        "' must be non-empty and free of '/'");
        }
        MachineConfig config;
        for (const std::string &entry : variant.set)
            applyConfigSetting(config, entry);
    }
    // Two cells with one name would share a store key and a manifest
    // row: a repeated workload, mode, variant or seed.
    std::set<std::string> names;
    for (const CampaignCell &cell : campaignCells(spec)) {
        if (!names.insert(cell.name).second) {
            specInvalid("cell '" + cell.name +
                        "' appears twice: workloads, modes, variants "
                        "and seeds must each be unique");
        }
    }
    // A crash entry that names no cell would crash nothing, and the
    // test it arms would pass without its crash.
    for (const auto &crash : spec.crashes) {
        if (!names.count(crash.first)) {
            specInvalid("crash entry '" + crash.first +
                        "' names no cell of the grid");
        }
    }
}

} // namespace

std::string
specJson(const CampaignSpec &spec)
{
    SnapshotWriter w;
    w.beginObject();
    writeSpecFields(w, spec);
    w.endObject();
    return w.text();
}

CampaignSpec
parseSpec(const std::string &text)
{
    SnapshotReader r(text);
    CampaignSpec spec;
    spec.name = r.str("name");
    spec.workloads.clear();
    size_t n = r.enterArray("workloads");
    for (size_t i = 0; i < n; i++) {
        r.enterItem(i);
        spec.workloads.push_back(r.str("name"));
        r.leave();
    }
    r.leave();
    spec.modes.clear();
    n = r.enterArray("modes");
    for (size_t i = 0; i < n; i++) {
        r.enterItem(i);
        std::string name = r.str("name");
        Mode mode;
        if (!parseMode(name, &mode))
            specParseFail("unknown mode '" + name + "'");
        spec.modes.push_back(mode);
        r.leave();
    }
    r.leave();
    if (r.has("variants")) {
        n = r.enterArray("variants");
        for (size_t i = 0; i < n; i++) {
            r.enterItem(i);
            spec.variants.push_back({r.str("name"), r.strArray("set")});
            r.leave();
        }
        r.leave();
    }
    spec.seeds = r.u64Array("seeds");
    spec.scale = r.u64("scale");
    spec.maxInsts = r.u64("maxInsts");
    r.enter("faults");
    std::string site = r.str("site");
    if (!parseFaultSite(site, &spec.faults.site))
        specParseFail("unknown fault site '" + site + "'");
    spec.faults.seed = r.u64("seed");
    spec.faults.count = r.u64("count");
    spec.faults.startCycle = r.u64("startCycle");
    spec.faults.period = r.u64("period");
    r.leave();
    spec.cycleBudget = r.u64("cycleBudget");
    spec.isolate = r.boolean("isolate");
    spec.wallDeadlineMs = r.u64("wallDeadlineMs");
    spec.memLimitMb = r.u64("memLimitMb");
    spec.cpuLimitSeconds = r.u64("cpuLimitSeconds");
    spec.crashes.clear();
    n = r.enterArray("crashes");
    for (size_t i = 0; i < n; i++) {
        r.enterItem(i);
        std::string cell = r.str("cell");
        std::string kind_name = r.str("kind");
        CrashKind kind;
        if (!parseCrashKind(kind_name, &kind))
            specParseFail("unknown crash kind '" + kind_name + "'");
        spec.crashes.emplace_back(std::move(cell), kind);
        r.leave();
    }
    r.leave();
    return spec;
}

std::vector<CampaignCell>
campaignCells(const CampaignSpec &spec)
{
    // The modes shorthand is one variant per mode, setting only mode.
    std::vector<CampaignVariant> variants = spec.variants;
    for (Mode mode : spec.modes)
        variants.push_back(
            {modeName(mode), {std::string("mode=") + modeName(mode)}});
    std::vector<CampaignCell> cells;
    for (const std::string &workload : spec.workloads) {
        for (const CampaignVariant &variant : variants) {
            for (uint64_t seed : spec.seeds) {
                CampaignCell cell;
                cell.workload = workload;
                cell.variant = variant;
                cell.seed = seed;
                cell.name = workload + "/" + variant.name + "/s" +
                            std::to_string(seed);
                for (const auto &crash : spec.crashes)
                    if (crash.first == cell.name)
                        cell.crash = crash.second;
                cells.push_back(std::move(cell));
            }
        }
    }
    return cells;
}

MachineConfig
cellConfig(const CampaignSpec &spec, const CampaignCell &cell)
{
    MachineConfig config;
    if (spec.maxInsts > 0)
        config.maxInsts = spec.maxInsts;
    config.faults = spec.faults;
    if (cell.seed != 0)
        config.faults.seed = cell.seed;
    for (const std::string &entry : cell.variant.set)
        applyConfigSetting(config, entry);
    return config;
}

BatchPolicy
campaignPolicy(const CampaignSpec &spec,
               const std::atomic<bool> *cancel)
{
    BatchPolicy policy;
    policy.cycleBudget = spec.cycleBudget;
    policy.isolate = spec.isolate;
    policy.wallDeadlineSeconds =
        static_cast<double>(spec.wallDeadlineMs) / 1000.0;
    policy.memLimitMb = spec.memLimitMb;
    policy.cpuLimitSeconds = spec.cpuLimitSeconds;
    policy.cancel = cancel;
    return policy;
}

// ---------------------------------------------------------------------
// ResultStore
// ---------------------------------------------------------------------

std::string
ResultStore::cellKey(uint64_t program_hash,
                     const MachineConfig &config, uint64_t seed)
{
    std::string key = "cell-" + hex16(program_hash) + "-" +
                      hex16(fnv1a(configFingerprint(config))) + "-" +
                      modeName(config.mode) + "-s" +
                      std::to_string(seed);
    // The fingerprint leaves the retire cap out (run control, not
    // machine state), yet a capped cell computes another result. Only
    // a non-default cap is named, so every default key keeps its
    // bytes.
    if (config.maxInsts != MachineConfig().maxInsts)
        key += "-i" + std::to_string(config.maxInsts);
    return key + ".json";
}

std::string
ResultStore::pathFor(const std::string &key) const
{
    return dir_ + "/" + key;
}

bool
ResultStore::load(const std::string &key,
                  const MachineConfig &config,
                  BatchResult *result) const
{
    std::string text = readFileOrEmpty(pathFor(key));
    if (text.empty())
        return false;
    try {
        BatchResult decoded;
        std::string checkpoint;
        bool final_attempt = false;
        decodeJobResult(text, config, &decoded, &checkpoint,
                        &final_attempt);
        // A failure is never a hit, not even one a store kept from
        // before only successes were stored: the cell reruns.
        if (!decoded.ok())
            return false;
        *result = std::move(decoded);
        return true;
    } catch (const SimError &err) {
        // A corrupt store entry must only cost a re-run, never the
        // campaign.
        SSMT_WARN("result store entry '" + key +
                  "' is unreadable and will be recomputed: " +
                  err.context());
        return false;
    }
}

bool
ResultStore::save(const std::string &key, const BatchResult &result)
{
    return writeFileAtomic(pathFor(key),
                           encodeJobResult(result, "", true));
}

std::vector<std::string>
ResultStore::list() const
{
    return listDir(dir_);
}

bool
ResultStore::remove(const std::string &key)
{
    return removeFile(pathFor(key));
}

// ---------------------------------------------------------------------
// CampaignJournal
// ---------------------------------------------------------------------

CampaignJournal::~CampaignJournal()
{
    close();
}

JournalContents
CampaignJournal::read(const std::string &path)
{
    JournalContents contents;
    if (!pathExists(path))
        return contents;
    contents.exists = true;
    std::string text = readFileOrEmpty(path);

    size_t pos = 0;
    size_t line_no = 0;
    while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        bool truncated = nl == std::string::npos;
        std::string line =
            text.substr(pos, truncated ? std::string::npos
                                       : nl - pos);
        pos = truncated ? text.size() : nl + 1;
        line_no++;
        if (line.empty())
            continue;

        JsonValue value;
        if (!parseJson(line, value)) {
            // A truncated final line is the expected signature of a
            // mid-write kill; anything else is corruption.
            if (!truncated)
                contents.corruptLines++;
            continue;
        }
        if (line_no == 1) {
            if (value.str("schema") == kCampaignJournalSchema) {
                contents.headerOk = true;
                contents.spec = value.str("spec");
            }
            continue;
        }
        if (const JsonValue *end = value.find("end")) {
            if (end->kind == JsonValue::Kind::Bool && end->boolean)
                contents.ended = true;
            continue;
        }
        JournalCell cell;
        cell.cell = value.str("cell");
        cell.key = value.str("key");
        if (!parseErrorCode(value.str("errorCode"),
                            &cell.errorCode)) {
            contents.corruptLines++;
            continue;
        }
        const JsonValue *cached = value.find("cached");
        cell.cached = cached &&
                      cached->kind == JsonValue::Kind::Bool &&
                      cached->boolean;
        contents.cells.push_back(std::move(cell));
    }
    return contents;
}

bool
CampaignJournal::open(bool truncate)
{
    close();
    int flags = O_WRONLY | O_CREAT | O_APPEND;
    if (truncate)
        flags |= O_TRUNC;
    fd_ = ::open(path_.c_str(), flags, 0644);
    return fd_ >= 0;
}

bool
CampaignJournal::appendLine(const std::string &line)
{
    if (fd_ < 0)
        return false;
    std::string full = line + "\n";
    const char *data = full.data();
    size_t left = full.size();
    while (left > 0) {
        ssize_t wrote = ::write(fd_, data, left);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += wrote;
        left -= static_cast<size_t>(wrote);
    }
    // Durable before the next cell starts: the journal must be a
    // complete prefix of the truth at every instant.
    return ::fsync(fd_) == 0;
}

bool
CampaignJournal::appendHeader(const std::string &spec_json)
{
    SnapshotWriter w;
    w.beginObject();
    w.str("schema", kCampaignJournalSchema);
    w.str("spec", spec_json);
    w.endObject();
    return appendLine(w.text());
}

namespace
{

std::string
cellLine(const JournalCell &cell)
{
    SnapshotWriter w;
    w.beginObject();
    w.str("cell", cell.cell);
    w.str("key", cell.key);
    w.str("errorCode", errorCodeName(cell.errorCode));
    w.boolean("cached", cell.cached);
    w.endObject();
    return w.text();
}

} // namespace

bool
CampaignJournal::appendCell(const JournalCell &cell)
{
    return appendLine(cellLine(cell));
}

bool
CampaignJournal::appendCells(const std::vector<JournalCell> &cells)
{
    if (cells.empty())
        return true;
    std::string lines = cellLine(cells.front());
    for (size_t i = 1; i < cells.size(); i++)
        lines += "\n" + cellLine(cells[i]);
    return appendLine(lines);
}

bool
CampaignJournal::appendEnd()
{
    SnapshotWriter w;
    w.beginObject();
    w.boolean("end", true);
    w.endObject();
    return appendLine(w.text());
}

void
CampaignJournal::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

// ---------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------

std::string
campaignManifest(const CampaignSpec &spec,
                 const std::vector<CampaignCell> &cells,
                 const std::vector<BatchResult> &results)
{
    SSMT_ASSERT(cells.size() == results.size(),
                "manifest needs one result per cell");
    SnapshotWriter w;
    w.beginObject();
    w.str("schema", kCampaignSchema);
    w.beginObject("spec");
    writeSpecFields(w, spec);
    w.endObject();

    uint64_t failed = 0;
    w.beginArray("cells");
    for (size_t i = 0; i < cells.size(); i++) {
        const CampaignCell &cell = cells[i];
        const BatchResult &result = results[i];
        w.beginObject();
        w.str("name", cell.name);
        w.str("workload", cell.workload);
        w.str("mode", modeName(cellConfig(spec, cell).mode));
        w.u64("seed", cell.seed);
        w.str("errorCode", errorCodeName(result.errorCode));
        w.str("error", result.error);
        w.u64Array("counters", statsValues(result.stats));
        w.beginObject("faults");
        w.u64("armed", result.faults.armed);
        w.u64("injected", result.faults.injected);
        w.u64("noTarget", result.faults.noTarget);
        w.endObject();
        w.endObject();
        if (!result.ok())
            failed++;
    }
    w.endArray();

    w.beginObject("totals");
    w.u64("cells", cells.size());
    w.u64("failed", failed);
    w.endObject();
    w.endObject();
    return w.text();
}

// ---------------------------------------------------------------------
// runCampaign
// ---------------------------------------------------------------------

namespace
{

void
logLine(const CampaignOptions &opts, const std::string &msg)
{
    if (opts.log)
        opts.log(msg);
}

/** One workload of a spec, built and hashed once: every cell of the
 *  workload shares the program's body and its store-key hash. */
struct BuiltWorkload
{
    isa::Program program;
    uint64_t hash = 0;
};

/** Build each of @p spec's workloads and hash its program, in
 *  parallel (generators are independent and deterministic). */
std::map<std::string, BuiltWorkload>
buildWorkloads(const CampaignSpec &spec, const BatchRunner &runner)
{
    workloads::WorkloadParams params;
    params.scale = spec.scale;
    std::vector<BuiltWorkload> built(spec.workloads.size());
    runner.forEach(built.size(), [&](size_t w) {
        built[w].program =
            workloads::makeWorkload(spec.workloads[w], params);
        built[w].hash = programHash(built[w].program);
    });
    std::map<std::string, BuiltWorkload> by_name;
    for (size_t w = 0; w < built.size(); w++)
        by_name.emplace(spec.workloads[w], built[w]);
    return by_name;
}

} // namespace

CampaignOutcome
runCampaign(const CampaignSpec &spec, const std::string &dir,
            const CampaignOptions &opts)
{
    checkSpec(spec);

    const std::string store_dir = dir + "/store";
    if (!ensureDir(dir) || !ensureDir(store_dir)) {
        throw SimError(ErrorCode::IoError, "campaign",
                       "cannot create campaign directory '" + dir +
                           "'");
    }

    CampaignOutcome outcome;
    outcome.cells = campaignCells(spec);
    const size_t n = outcome.cells.size();
    outcome.results.resize(n);

    BatchRunner runner(opts.jobs);

    const std::map<std::string, BuiltWorkload> built =
        buildWorkloads(spec, runner);

    // The journal pins the spec: resuming under a different spec
    // would silently mix incompatible cells into one campaign.
    const std::string spec_json = specJson(spec);
    const std::string journal_path = dir + "/journal.jsonl";
    JournalContents prior = CampaignJournal::read(journal_path);
    bool restart = !prior.exists || !prior.headerOk;
    if (prior.exists && prior.headerOk &&
        prior.spec != spec_json) {
        if (!opts.force) {
            throw SimError(
                ErrorCode::ConfigInvalid, "campaign",
                "journal at '" + journal_path +
                    "' records a different spec (use force/--force "
                    "to restart the campaign)");
        }
        logLine(opts, "spec changed; restarting journal");
        restart = true;
    }
    if (prior.corruptLines > 0) {
        SSMT_WARN("campaign journal '" + journal_path + "' has " +
                  std::to_string(prior.corruptLines) +
                  " corrupt line(s); affected cells will re-run "
                  "from the store");
    }

    CampaignJournal journal(journal_path);
    if (!journal.open(restart)) {
        throw SimError(ErrorCode::IoError, "campaign",
                       "cannot open journal '" + journal_path + "'");
    }
    if (restart && !journal.appendHeader(spec_json)) {
        throw SimError(ErrorCode::IoError, "campaign",
                       "cannot write journal header");
    }

    // Cell identities, then the store pass: a stored success is a
    // cache hit and never re-simulated. The hits are journaled with
    // one write and one fsync rather than one each: the store
    // already holds every one of them, so a crash before that sync
    // loses nothing a rerun would not serve again.
    ResultStore store(store_dir);
    std::vector<std::string> keys(n);
    std::vector<MachineConfig> configs(n);
    std::vector<char> cached(n, 0);
    // Set once a cell is accounted for: served, failed, or succeeded
    // and stored. A success whose save failed leaves the campaign
    // incomplete.
    std::vector<char> recorded(n, 0);
    std::vector<JournalCell> hits;
    for (size_t i = 0; i < n; i++) {
        const CampaignCell &cell = outcome.cells[i];
        configs[i] = cellConfig(spec, cell);
        keys[i] = ResultStore::cellKey(built.at(cell.workload).hash,
                                       configs[i], cell.seed);
        if (store.load(keys[i], configs[i], &outcome.results[i])) {
            cached[i] = recorded[i] = 1;
            outcome.cacheHits++;
            hits.push_back({cell.name, keys[i],
                            outcome.results[i].errorCode, true});
        }
    }
    journal.appendCells(hits);
    for (size_t i = 0; i < n; i++) {
        if (!cached[i])
            continue;
        const CampaignCell &cell = outcome.cells[i];
        logLine(opts, cell.name + ": cached");
        if (opts.onCell)
            opts.onCell(cell, keys[i], outcome.results[i], true);
    }

    // Everything else runs once through BatchRunner, with per-cell
    // durability from the completion hook: a success is stored first
    // (atomic rename), then journaled — so a journaled success is
    // always loadable. A failure is journaled but never stored, so
    // the next run executes it again.
    std::vector<size_t> cell_of;
    std::vector<BatchJob> batch;
    for (size_t i = 0; i < n; i++) {
        if (cached[i])
            continue;
        const CampaignCell &cell = outcome.cells[i];
        BatchJob job;
        job.name = cell.name;
        job.program = built.at(cell.workload).program;
        job.config = configs[i];
        job.crash = cell.crash;
        batch.push_back(std::move(job));
        cell_of.push_back(i);
    }

    BatchPolicy policy = campaignPolicy(spec, opts.cancel);
    std::mutex hook_mutex;   // in-process workers are concurrent
    std::vector<BatchResult> ran = runner.run(
        batch, policy, [&](size_t b, const BatchResult &result) {
            std::lock_guard<std::mutex> lock(hook_mutex);
            const size_t i = cell_of[b];
            const CampaignCell &cell = outcome.cells[i];
            if (!result.ok()) {
                // Drop any failure an older store kept under the key.
                store.remove(keys[i]);
            } else if (!store.save(keys[i], result)) {
                SSMT_WARN("campaign cell '" + cell.name +
                          "' could not be persisted to the store");
                return;
            }
            recorded[i] = 1;
            journal.appendCell(
                {cell.name, keys[i], result.errorCode, false});
            logLine(opts,
                    cell.name + ": " +
                        (result.ok()
                             ? std::string("ok")
                             : std::string("failed [") +
                                   errorCodeName(result.errorCode) +
                                   "]"));
            if (opts.onCell)
                opts.onCell(cell, keys[i], result, false);
        });

    // The batch failure digest must be taken before the results are
    // moved out below. Cache hits are successes, so it is complete.
    outcome.failureSummary = BatchRunner::failureSummary(batch, ran);

    for (size_t b = 0; b < ran.size(); b++) {
        if (ran[b].attempts == 0)
            continue;       // cancelled before it started
        outcome.results[cell_of[b]] = std::move(ran[b]);
        outcome.executed++;
    }

    // A cell never run keeps its default (ok) slot.
    for (const BatchResult &result : outcome.results)
        if (!result.ok())
            outcome.failed++;

    outcome.completed =
        std::all_of(recorded.begin(), recorded.end(),
                    [](char r) { return r != 0; });

    if (outcome.completed) {
        // Built from the results in hand: cache hits were decoded
        // from the store above, and the codec round-trips every
        // executed result byte for byte, so an interrupted-and-
        // resumed campaign writes the same bytes as an uninterrupted
        // one, at any worker count.
        std::string manifest =
            campaignManifest(spec, outcome.cells, outcome.results);
        std::string manifest_path = dir + "/manifest.json";
        if (writeFileAtomic(manifest_path, manifest)) {
            outcome.manifestPath = manifest_path;
            journal.appendEnd();
        } else {
            SSMT_WARN("campaign manifest '" + manifest_path +
                      "' could not be written");
            outcome.completed = false;
        }
    }

    return outcome;
}

std::vector<std::string>
campaignGc(const CampaignSpec &spec, const std::string &dir)
{
    // A spec runCampaign refuses has no live cells: collecting under
    // it would empty the store.
    checkSpec(spec);
    ResultStore store(dir + "/store");
    const std::map<std::string, BuiltWorkload> built =
        buildWorkloads(spec, BatchRunner());
    std::set<std::string> live;
    for (const CampaignCell &cell : campaignCells(spec)) {
        live.insert(ResultStore::cellKey(built.at(cell.workload).hash,
                                         cellConfig(spec, cell),
                                         cell.seed));
    }
    std::vector<std::string> removed;
    for (const std::string &key : store.list()) {
        if (live.count(key))
            continue;
        if (store.remove(key))
            removed.push_back(key);
    }
    return removed;
}

size_t
journalLag(const JournalContents &journal,
           const std::vector<std::string> &store_keys)
{
    std::set<std::string> journaled;
    for (const JournalCell &cell : journal.cells)
        journaled.insert(cell.key);
    size_t lag = 0;
    for (const std::string &key : store_keys)
        if (!journaled.count(key))
            lag++;
    return lag;
}

} // namespace sim
} // namespace ssmt
