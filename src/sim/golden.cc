#include "sim/golden.hh"

#include <cstdio>
#include <map>

#include "sim/campaign.hh"
#include "sim/fsio.hh"
#include "sim/json_text.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"
#include "sim/snapshot.hh"

namespace ssmt
{
namespace sim
{

const char kGoldenSchema[] = "ssmt-golden-v1";
const char kGoldenConfigName[] = "microthread-default";

MachineConfig
goldenMachineConfig()
{
    MachineConfig cfg;
    cfg.mode = Mode::Microthread;
    return cfg;
}

namespace
{

struct StatsField
{
    const char *name;
    uint64_t Stats::*member;
};

struct BuildField
{
    const char *name;
    uint64_t core::BuildStats::*member;
};

// Canonical field order: matches the declaration order in stats.hh.
const StatsField kStatsFields[] = {
    {"cycles", &Stats::cycles},
    {"retiredInsts", &Stats::retiredInsts},
    {"fetchBubbleCycles", &Stats::fetchBubbleCycles},
    {"condBranches", &Stats::condBranches},
    {"condHwMispredicts", &Stats::condHwMispredicts},
    {"indirectBranches", &Stats::indirectBranches},
    {"indirectHwMispredicts", &Stats::indirectHwMispredicts},
    {"usedMispredicts", &Stats::usedMispredicts},
    {"promotionsRequested", &Stats::promotionsRequested},
    {"promotionsCompleted", &Stats::promotionsCompleted},
    {"demotions", &Stats::demotions},
    {"buildsFailed", &Stats::buildsFailed},
    {"rebuildRequests", &Stats::rebuildRequests},
    {"oracleOverrides", &Stats::oracleOverrides},
    {"throttleDemotions", &Stats::throttleDemotions},
    {"hintPromotions", &Stats::hintPromotions},
    {"spawnAttempts", &Stats::spawnAttempts},
    {"spawnAbortPrefix", &Stats::spawnAbortPrefix},
    {"spawnNoContext", &Stats::spawnNoContext},
    {"spawns", &Stats::spawns},
    {"abortsPostSpawn", &Stats::abortsPostSpawn},
    {"microthreadsCompleted", &Stats::microthreadsCompleted},
    {"microOpsExecuted", &Stats::microOpsExecuted},
    {"predEarly", &Stats::predEarly},
    {"predLate", &Stats::predLate},
    {"predUseless", &Stats::predUseless},
    {"predNeverReached", &Stats::predNeverReached},
    {"microPredCorrect", &Stats::microPredCorrect},
    {"microPredWrong", &Stats::microPredWrong},
    {"earlyRecoveries", &Stats::earlyRecoveries},
    {"bogusRecoveries", &Stats::bogusRecoveries},
    {"pathCacheUpdates", &Stats::pathCacheUpdates},
    {"pathCacheAllocations", &Stats::pathCacheAllocations},
    {"pathCacheAllocationsSkipped",
     &Stats::pathCacheAllocationsSkipped},
    {"pcacheWrites", &Stats::pcacheWrites},
    {"pcacheLookupHits", &Stats::pcacheLookupHits},
    {"l1dMisses", &Stats::l1dMisses},
    {"l1dAccesses", &Stats::l1dAccesses},
    {"l2Misses", &Stats::l2Misses},
    {"l2Accesses", &Stats::l2Accesses},
};

const BuildField kBuildFields[] = {
    {"build.requests", &core::BuildStats::requests},
    {"build.built", &core::BuildStats::built},
    {"build.failScopeNotInPrb", &core::BuildStats::failScopeNotInPrb},
    {"build.failPathMismatch", &core::BuildStats::failPathMismatch},
    {"build.stopsMemDep", &core::BuildStats::stopsMemDep},
    {"build.stopsMcbFull", &core::BuildStats::stopsMcbFull},
    {"build.totalOps", &core::BuildStats::totalOps},
    {"build.totalChain", &core::BuildStats::totalChain},
    {"build.totalLiveIns", &core::BuildStats::totalLiveIns},
    {"build.prunedRoutines", &core::BuildStats::prunedRoutines},
    {"build.prunedSubtrees", &core::BuildStats::prunedSubtrees},
};

constexpr size_t kNumStatsFields =
    sizeof(kStatsFields) / sizeof(kStatsFields[0]);
constexpr size_t kNumBuildFields =
    sizeof(kBuildFields) / sizeof(kBuildFields[0]);

// Stats is uint64_t counters all the way down, so its size pins the
// field count on every platform. Adding a counter to Stats (or
// BuildStats) fires this assert until the tables above — and with
// them golden serialization and the diff tool — learn the new field.
static_assert(sizeof(Stats) ==
                  (kNumStatsFields + kNumBuildFields) *
                      sizeof(uint64_t),
              "Stats gained or lost a counter: update kStatsFields / "
              "kBuildFields (and regenerate golden snapshots)");

bool
assignCounter(Stats &stats, const std::string &name, uint64_t value)
{
    for (const StatsField &f : kStatsFields) {
        if (name == f.name) {
            stats.*(f.member) = value;
            return true;
        }
    }
    for (const BuildField &f : kBuildFields) {
        if (name == f.name) {
            stats.build.*(f.member) = value;
            return true;
        }
    }
    return false;
}

} // namespace

std::vector<std::pair<std::string, uint64_t>>
flattenStats(const Stats &stats)
{
    std::vector<std::pair<std::string, uint64_t>> out;
    out.reserve(kNumStatsFields + kNumBuildFields);
    for (const StatsField &f : kStatsFields)
        out.emplace_back(f.name, stats.*(f.member));
    for (const BuildField &f : kBuildFields)
        out.emplace_back(f.name, stats.build.*(f.member));
    return out;
}

std::vector<uint64_t>
statsValues(const Stats &stats)
{
    std::vector<uint64_t> out;
    out.reserve(kNumStatsFields + kNumBuildFields);
    for (const StatsField &f : kStatsFields)
        out.push_back(stats.*(f.member));
    for (const BuildField &f : kBuildFields)
        out.push_back(stats.build.*(f.member));
    return out;
}

void
statsFromValues(Stats &out, const std::vector<uint64_t> &values)
{
    if (values.size() != kNumStatsFields + kNumBuildFields) {
        throw SimError(ErrorCode::ParseError, "golden",
                       "stats value array has " +
                           std::to_string(values.size()) +
                           " entries, expected " +
                           std::to_string(kNumStatsFields +
                                          kNumBuildFields));
    }
    size_t i = 0;
    for (const StatsField &f : kStatsFields)
        out.*(f.member) = values[i++];
    for (const BuildField &f : kBuildFields)
        out.build.*(f.member) = values[i++];
}

std::string
goldenJson(const GoldenRun &run)
{
    SnapshotWriter w(SnapshotWriter::Layout::Spaced);
    w.beginObject(SnapshotWriter::kLines);
    w.str("schema", kGoldenSchema);
    w.str("workload", run.workload);
    w.str("config", run.config);
    w.beginObject("counters", SnapshotWriter::kLines);
    for (const auto &[name, value] : flattenStats(run.stats))
        w.u64(name.c_str(), value);
    w.endObject();
    w.endObject();
    return w.text();
}

bool
parseGolden(const std::string &text, GoldenRun &out, std::string *err)
{
    JsonValue doc;
    if (!parseJson(text, doc, err))
        return false;
    if (doc.kind != JsonValue::Kind::Object) {
        if (err)
            *err = "golden document is not an object";
        return false;
    }
    if (doc.str("schema") != kGoldenSchema) {
        if (err)
            *err = "unexpected schema '" + doc.str("schema") +
                   "' (want " + kGoldenSchema + ")";
        return false;
    }
    out.workload = doc.str("workload");
    out.config = doc.str("config");
    out.stats = Stats{};
    const JsonValue *counters = doc.find("counters");
    if (!counters || counters->kind != JsonValue::Kind::Object) {
        if (err)
            *err = "missing counters object";
        return false;
    }
    for (const auto &member : counters->members) {
        if (member.second.kind != JsonValue::Kind::Number ||
            !member.second.isInteger) {
            if (err)
                *err = "counter '" + member.first +
                       "' is not an integer";
            return false;
        }
        if (!assignCounter(out.stats, member.first,
                           member.second.integer)) {
            if (err)
                *err = "unknown counter '" + member.first +
                       "' (stale snapshot? regenerate with "
                       "ssmt_verify_golden --update)";
            return false;
        }
    }
    return true;
}

std::string
goldenFileName(const std::string &workload)
{
    return workload + ".json";
}

std::vector<CounterDrift>
diffStats(const Stats &golden, const Stats &candidate)
{
    std::vector<CounterDrift> out;
    auto a = flattenStats(golden);
    auto b = flattenStats(candidate);
    for (size_t i = 0; i < a.size(); i++) {
        if (a[i].second != b[i].second)
            out.push_back({a[i].first, a[i].second, b[i].second});
    }
    return out;
}

bool
DriftAllowlist::allows(const std::string &workload,
                       const std::string &counter) const
{
    for (const std::string &entry : entries) {
        if (entry == counter)
            return true;
        if (entry == workload + ":" + counter)
            return true;
    }
    return false;
}

DriftAllowlist
DriftAllowlist::parse(const std::string &text)
{
    DriftAllowlist list;
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t eol = text.find('\n', pos);
        std::string line = text.substr(
            pos, eol == std::string::npos ? std::string::npos
                                          : eol - pos);
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        size_t begin = line.find_first_not_of(" \t\r");
        size_t end = line.find_last_not_of(" \t\r");
        if (begin != std::string::npos)
            list.entries.push_back(
                line.substr(begin, end - begin + 1));
        if (eol == std::string::npos)
            break;
        pos = eol + 1;
    }
    return list;
}

DriftAllowlist
DriftAllowlist::load(const std::string &path, bool *existed)
{
    if (existed)
        *existed = pathExists(path);
    return parse(readFileOrEmpty(path));
}

std::string
writeGoldenFile(const std::string &dir, const GoldenRun &run)
{
    std::string path = dir + "/" + goldenFileName(run.workload);
    // Atomic: a golden snapshot is a regression baseline; a crashed
    // regeneration must not leave a truncated one behind.
    return writeFileAtomic(path, goldenJson(run)) ? path : "";
}

CampaignSpec
verifyGoldenSpec(const std::vector<std::string> &workloads, bool faults)
{
    CampaignSpec spec;
    spec.name = "verify-golden";
    spec.workloads = workloads;
    for (Mode mode : {Mode::Microthread, Mode::Baseline,
                      Mode::OracleDifficultPath,
                      Mode::OracleAllBranches})
        spec.variants.push_back(
            {modeName(mode), {std::string("mode=") + modeName(mode)}});
    if (faults) {
        for (FaultSite site : allFaultSites())
            spec.variants.push_back(
                {faultSiteName(site),
                 {"mode=microthread",
                  std::string("faultSite=") + faultSiteName(site),
                  "faultCount=" + std::to_string(kVerifyFaultCount)}});
    }
    return spec;
}

int
VerifyReport::exitStatus() const
{
    if (missing)
        return 2;
    return drifted || failedRelations ? 1 : 0;
}

namespace
{

/** The golden check of one workload's reference cell: every
 *  counter, then the canonical bytes. */
void
checkGoldenFile(const std::string &workload, const Stats &stats,
                const std::string &golden_dir,
                const DriftAllowlist &allowlist, VerifyReport &report)
{
    std::string path = golden_dir + "/" + goldenFileName(workload);
    std::string text = readFileOrEmpty(path);
    GoldenRun want;
    std::string err;
    if (text.empty())
        err = "missing (run ssmt_verify_golden --update)";
    else if (!parseGolden(text, want, &err))
        err = "cannot parse: " + err;
    else if (want.config != kGoldenConfigName)
        err = "pinned to config '" + want.config +
              "' but this binary verifies '" + kGoldenConfigName +
              "' — regenerate";
    if (!err.empty()) {
        report.log += "golden snapshot " + path + " " + err + "\n";
        report.missing++;
        return;
    }
    std::vector<CounterDrift> drifts = diffStats(want.stats, stats);
    for (const CounterDrift &d : drifts) {
        bool allowed = allowlist.allows(workload, d.counter);
        char pct[32];
        std::snprintf(pct, sizeof(pct), " (%+.2f%%)\n",
                      100.0 * d.relative());
        report.log += (allowed ? "allowed drift " : "DRIFT ") +
                      workload + ": " + d.counter + " " +
                      std::to_string(d.golden) + " -> " +
                      std::to_string(d.candidate) + pct;
        (allowed ? report.allowed : report.drifted)++;
    }
    if (drifts.empty() &&
        goldenJson({workload, kGoldenConfigName, stats}) != text) {
        report.log += "DRIFT " + workload +
                      ": snapshot is not the canonical serialization "
                      "— regenerate\n";
        report.drifted++;
    }
}

} // namespace

VerifyReport
checkVerifyGolden(const CampaignOutcome &outcome,
                  const std::string &golden_dir,
                  const DriftAllowlist &allowlist)
{
    VerifyReport report;
    std::map<std::string, uint64_t> injected;
    const std::vector<CampaignCell> &cells = outcome.cells;
    for (size_t begin = 0, end = 0; begin < cells.size(); begin = end) {
        // Cells are workload-major: [begin, end) is one workload.
        const std::string &workload = cells[begin].workload;
        while (end < cells.size() && cells[end].workload == workload)
            end++;
        auto stats = [&](Mode mode) -> const Stats & {
            for (size_t i = begin; i < end; i++)
                if (cells[i].variant.name == modeName(mode))
                    return outcome.results[i].stats;
            SSMT_PANIC(workload + " has no " + modeName(mode) + " cell");
        };
        const Stats &ref = stats(Mode::Microthread);
        checkGoldenFile(workload, ref, golden_dir, allowlist, report);

        // Only correct-path instructions are fetched, so no mode and
        // no fault may change the committed stream.
        ArchSignature want = ArchSignature::of(ref);
        for (size_t i = begin; i < end; i++) {
            const BatchResult &result = outcome.results[i];
            std::string diff =
                ArchSignature::of(result.stats).diff(want);
            if (!diff.empty()) {
                report.log += "ARCH MISMATCH " + cells[i].name + ": " +
                              diff + "\n";
                report.failedRelations++;
            }
            FaultSite site;
            if (parseFaultSite(cells[i].variant.name, &site))
                injected[cells[i].variant.name] +=
                    result.faults.injected;
        }

        // A full oracle uses no wrong prediction, fewer wrong
        // predictions are used the better the predictions, and in
        // baseline mode the used prediction is the hardware one.
        const Stats &baseline = stats(Mode::Baseline);
        uint64_t base = baseline.usedMispredicts;
        uint64_t micro = ref.usedMispredicts;
        uint64_t oracle = stats(Mode::OracleDifficultPath).usedMispredicts;
        uint64_t all = stats(Mode::OracleAllBranches).usedMispredicts;
        uint64_t hw =
            baseline.condHwMispredicts + baseline.indirectHwMispredicts;
        const std::pair<bool, const char *> relations[] = {
            {all == 0, "oracle-all-branches == 0"},
            {all <= oracle, "oracle-all-branches <= oracle-difficult-path"},
            {oracle <= base, "oracle-difficult-path <= baseline"},
            {micro <= base, "microthread <= baseline"},
            {base == hw, "baseline == baseline's hw mispredicts"}};
        for (const auto &[holds, what] : relations) {
            if (holds)
                continue;
            report.log += "RELATION FAIL " + workload +
                          ": used mispredicts " + what + " (baseline " +
                          std::to_string(base) + ", microthread " +
                          std::to_string(micro) + ", oracles " +
                          std::to_string(oracle) + "/" +
                          std::to_string(all) + ", hw " +
                          std::to_string(hw) + ")\n";
            report.failedRelations++;
        }
    }

    for (FaultSite site : allFaultSites()) {
        auto it = injected.find(faultSiteName(site));
        if (it == injected.end())
            continue;
        report.injected.push_back(*it);
        if (it->second == 0) {
            report.log += std::string("FAULT SITE NEVER FIRED ") +
                          it->first + ": no workload took a fault\n";
            report.failedRelations++;
        }
    }
    return report;
}

} // namespace sim
} // namespace ssmt
