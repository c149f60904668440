#include "sim/machine_config.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <type_traits>

#include "sim/sim_error.hh"

namespace ssmt
{
namespace sim
{

const char *
modeName(Mode mode)
{
    switch (mode) {
      case Mode::Baseline:
        return "baseline";
      case Mode::OracleDifficultPath:
        return "oracle-difficult-path";
      case Mode::Microthread:
        return "microthread";
      case Mode::MicrothreadNoPredictions:
        return "microthread-no-predictions";
      case Mode::OracleAllBranches:
        return "oracle-all-branches";
    }
    return "?";
}

const std::vector<Mode> &
allModes()
{
    static const std::vector<Mode> modes = {
        Mode::Baseline, Mode::OracleDifficultPath, Mode::Microthread,
        Mode::MicrothreadNoPredictions, Mode::OracleAllBranches};
    return modes;
}

bool
parseMode(const std::string &name, Mode *out)
{
    for (Mode mode : allModes()) {
        if (name == modeName(mode)) {
            *out = mode;
            return true;
        }
    }
    return false;
}

namespace
{

// ---- The MachineConfig field table --------------------------------
//
// One entry per structural knob: the fingerprint prints through it
// and applyConfigSetting parses through it, so the two share one key
// set and one value syntax. Order is part of the fingerprint format:
// append new knobs at the end of their section. Excluded on purpose:
// mode (warmup fan-out restores into any mode), maxInsts/maxCycles
// (run control; budget extension on resume), traceCapacity/tracePath
// (observability only).

template <typename T>
void
printValue(std::string &out, const T &value)
{
    if constexpr (std::is_same_v<T, bool>) {
        out += value ? '1' : '0';
    } else if constexpr (std::is_same_v<T, bpred::PredictorKind>) {
        out += bpred::predictorKindName(value);
    } else if constexpr (std::is_same_v<T, FaultSite>) {
        out += faultSiteName(value);
    } else if constexpr (std::is_same_v<T, std::vector<uint64_t>>) {
        for (size_t i = 0; i < value.size(); i++) {
            out += i ? "," : "";
            printValue(out, value[i]);
        }
    } else {
        // Integers, and doubles in shortest round-trip form: two
        // distinct thresholds never share a fingerprint.
        char buf[32];
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
    }
}

template <typename T>
bool
parseValue(std::string_view text, T &value)
{
    if constexpr (std::is_same_v<T, bool>) {
        value = text == "1";
        return value || text == "0";
    } else if constexpr (std::is_same_v<T, bpred::PredictorKind>) {
        return bpred::parsePredictorKind(std::string(text), &value);
    } else if constexpr (std::is_same_v<T, FaultSite>) {
        return parseFaultSite(std::string(text), &value);
    } else if constexpr (std::is_same_v<T, std::vector<uint64_t>>) {
        // One more hint than commas; none for an empty list.
        std::vector<uint64_t> hints(
            std::count(text.begin(), text.end(), ',') + !text.empty());
        for (uint64_t &hint : hints) {
            const size_t comma = std::min(text.find(','), text.size());
            if (!parseValue(text.substr(0, comma), hint))
                return false;
            text.remove_prefix(std::min(comma + 1, text.size()));
        }
        value = std::move(hints);
        return true;
    } else {
        // Integers, and finite doubles.
        T parsed{};
        const char *end = text.data() + text.size();
        auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
        if (ec != std::errc() || ptr != end ||
            !std::isfinite(static_cast<double>(parsed)))
            return false;
        value = parsed;
        return true;
    }
}

struct ConfigField
{
    const char *key;
    void (*print)(const MachineConfig &, std::string &);
    bool (*parse)(MachineConfig &, std::string_view);
};

/** The entry for the member @p Path names: a MachineConfig field, or
 *  a nested struct's field (&MachineConfig::mem, then its own). */
template <auto... Path>
constexpr ConfigField
field(const char *key)
{
    return {key,
            [](const MachineConfig &config, std::string &out) {
                printValue(out, (config .* ... .* Path));
            },
            [](MachineConfig &config, std::string_view text) {
                return parseValue(text, (config .* ... .* Path));
            }};
}

using MC = MachineConfig;
using Mem = memory::HierarchyConfig;
using Builder = core::BuilderConfig;

constexpr ConfigField kConfigFields[] = {
    field<&MC::fetchWidth>("fetchWidth"),
    field<&MC::maxBranchPredsPerCycle>("maxBranchPredsPerCycle"),
    field<&MC::maxICacheLinesPerCycle>("maxICacheLinesPerCycle"),
    field<&MC::frontendDepth>("frontendDepth"),
    field<&MC::redirectPenalty>("redirectPenalty"),
    field<&MC::windowSize>("windowSize"),
    field<&MC::numFUs>("numFUs"),
    field<&MC::l1dReadPorts>("l1dReadPorts"),
    field<&MC::mem, &Mem::l1iSize>("l1iSize"),
    field<&MC::mem, &Mem::l1iAssoc>("l1iAssoc"),
    field<&MC::mem, &Mem::l1dSize>("l1dSize"),
    field<&MC::mem, &Mem::l1dAssoc>("l1dAssoc"),
    field<&MC::mem, &Mem::l2Size>("l2Size"),
    field<&MC::mem, &Mem::l2Assoc>("l2Assoc"),
    field<&MC::mem, &Mem::lineBytes>("lineBytes"),
    field<&MC::mem, &Mem::l1Latency>("l1Latency"),
    field<&MC::mem, &Mem::l2Latency>("l2Latency"),
    field<&MC::mem, &Mem::dramLatency>("dramLatency"),
    field<&MC::bpredComponentEntries>("bpredComponentEntries"),
    field<&MC::bpredSelectorEntries>("bpredSelectorEntries"),
    field<&MC::targetCacheEntries>("targetCacheEntries"),
    field<&MC::rasDepth>("rasDepth"),
    field<&MC::predictor>("predictor"),
    field<&MC::bpredHistoryBits>("bpredHistoryBits"),
    field<&MC::pathN>("pathN"),
    field<&MC::difficultyThreshold>("difficultyThreshold"),
    field<&MC::pathCacheEntries>("pathCacheEntries"),
    field<&MC::pathCacheAssoc>("pathCacheAssoc"),
    field<&MC::trainingInterval>("trainingInterval"),
    field<&MC::microRamEntries>("microRamEntries"),
    field<&MC::predictionCacheEntries>("predictionCacheEntries"),
    field<&MC::prbEntries>("prbEntries"),
    field<&MC::builder, &Builder::mcbEntries>("mcbEntries"),
    field<&MC::builder, &Builder::moveElimination>("moveElimination"),
    field<&MC::builder, &Builder::constantPropagation>(
        "constantPropagation"),
    field<&MC::builder, &Builder::pruningEnabled>("pruningEnabled"),
    field<&MC::numMicrocontexts>("numMicrocontexts"),
    field<&MC::buildLatency>("buildLatency"),
    field<&MC::rebuildOnViolation>("rebuildOnViolation"),
    field<&MC::throttleEnabled>("throttleEnabled"),
    field<&MC::throttleWindow>("throttleWindow"),
    field<&MC::throttleMinUseful>("throttleMinUseful"),
    field<&MC::staticDifficultHints>("staticDifficultHints"),
    field<&MC::vpredEntries>("vpredEntries"),
    field<&MC::vpredConfMax>("vpredConfMax"),
    field<&MC::vpredConfThresh>("vpredConfThresh"),
    field<&MC::vpInstLatency>("vpInstLatency"),
    field<&MC::sampleInterval>("sampleInterval"),
    field<&MC::faults, &FaultPlan::site>("faultSite"),
    field<&MC::faults, &FaultPlan::seed>("faultSeed"),
    field<&MC::faults, &FaultPlan::count>("faultCount"),
    field<&MC::faults, &FaultPlan::startCycle>("faultStartCycle"),
    field<&MC::faults, &FaultPlan::period>("faultPeriod"),
};

[[noreturn]] void
settingFail(const std::string &entry, const std::string &why)
{
    throw SimError(ErrorCode::ConfigInvalid, "machine_config",
                   "config setting '" + entry + "': " + why);
}

} // namespace

std::string
configFingerprint(const MachineConfig &config)
{
    std::string out = "v1;";
    out.reserve(1024);
    for (const ConfigField &f : kConfigFields) {
        out += f.key;
        out += '=';
        f.print(config, out);
        out += ';';
    }
    return out;
}

void
applyConfigSetting(MachineConfig &config, const std::string &entry)
{
    const size_t eq = entry.find('=');
    if (eq == std::string::npos)
        settingFail(entry, "expected key=value");
    const std::string_view key(entry.data(), eq);
    const std::string_view value(entry.data() + eq + 1,
                                 entry.size() - eq - 1);
    if (key == "mode") {
        if (!parseMode(std::string(value), &config.mode))
            settingFail(entry, "unknown mode");
        return;
    }
    for (const ConfigField &f : kConfigFields) {
        if (key == f.key) {
            if (!f.parse(config, value))
                settingFail(entry, "unparsable value");
            return;
        }
    }
    settingFail(entry, "unknown key");
}

std::vector<std::string>
MachineConfig::validate() const
{
    std::vector<std::string> out;
    auto require = [&](bool ok, const std::string &diag) {
        if (!ok)
            out.push_back(diag);
    };

    require(fetchWidth >= 1,
            "fetchWidth must be >= 1 (got " +
                std::to_string(fetchWidth) + ")");
    require(maxBranchPredsPerCycle >= 1,
            "maxBranchPredsPerCycle must be >= 1 (got " +
                std::to_string(maxBranchPredsPerCycle) + ")");
    require(maxICacheLinesPerCycle >= 1,
            "maxICacheLinesPerCycle must be >= 1 (got " +
                std::to_string(maxICacheLinesPerCycle) + ")");
    require(redirectPenalty >= 0,
            "redirectPenalty must be >= 0 (got " +
                std::to_string(redirectPenalty) + ")");
    require(windowSize >= 1,
            "windowSize must be >= 1 (got " +
                std::to_string(windowSize) + ")");
    require(numFUs >= 1,
            "numFUs must be >= 1 (got " + std::to_string(numFUs) +
                ")");
    require(l1dReadPorts >= 1,
            "l1dReadPorts must be >= 1 (got " +
                std::to_string(l1dReadPorts) + ")");

    require(mem.lineBytes > 0,
            "mem.lineBytes must be > 0 (got " +
                std::to_string(mem.lineBytes) + ")");
    require(mem.l1Latency >= 1,
            "mem.l1Latency must be >= 1 (got " +
                std::to_string(mem.l1Latency) + ")");
    // Microthread dispatch charges frontendDepth - l1Latency cycles
    // (the I-cache stage is skipped); a shallower front end would
    // wrap the unsigned cycle arithmetic.
    require(frontendDepth >= mem.l1Latency,
            "frontendDepth (" + std::to_string(frontendDepth) +
                ") must be >= mem.l1Latency (" +
                std::to_string(mem.l1Latency) +
                "): microthread dispatch skips only the I-cache "
                "stage of the front end");

    auto pow2 = [](uint64_t v) { return v >= 2 && (v & (v - 1)) == 0; };
    require(pow2(bpredComponentEntries),
            "bpredComponentEntries must be a power of two >= 2 (got " +
                std::to_string(bpredComponentEntries) + ")");
    require(pow2(bpredSelectorEntries),
            "bpredSelectorEntries must be a power of two >= 2 (got " +
                std::to_string(bpredSelectorEntries) + ")");
    require(pow2(targetCacheEntries),
            "targetCacheEntries must be a power of two >= 2 (got " +
                std::to_string(targetCacheEntries) + ")");
    // 64 needs the wrap-safe mask in Gshare; anything above has no
    // bits to keep. 0 means "derive from the component size".
    require(bpredHistoryBits <= 64,
            "bpredHistoryBits must be in [0,64] (got " +
                std::to_string(bpredHistoryBits) +
                "); 0 derives log2(bpredComponentEntries)");
    require(rasDepth >= 1,
            "rasDepth must be >= 1 (got " + std::to_string(rasDepth) +
                "); the return-address stack wraps, it cannot be "
                "absent");

    require(pathN >= 1 && pathN <= 16,
            "pathN must be in [1,16] (got " + std::to_string(pathN) +
                "); the path tracker keeps 16 branches of history");
    require(difficultyThreshold >= 0.0 && difficultyThreshold <= 1.0,
            "difficultyThreshold must be in [0,1] (got " +
                std::to_string(difficultyThreshold) + ")");
    require(pathCacheEntries > 0 && pathCacheAssoc > 0,
            "pathCacheEntries and pathCacheAssoc must be > 0");
    if (pathCacheEntries > 0 && pathCacheAssoc > 0) {
        require(pathCacheEntries % pathCacheAssoc == 0,
                "pathCacheEntries (" +
                    std::to_string(pathCacheEntries) +
                    ") must be a multiple of pathCacheAssoc (" +
                    std::to_string(pathCacheAssoc) + ")");
        uint32_t sets = pathCacheEntries / pathCacheAssoc;
        require(sets > 0 && (sets & (sets - 1)) == 0,
                "pathCacheEntries / pathCacheAssoc must be a power "
                "of two (got " +
                    std::to_string(sets) + " sets)");
    }
    require(trainingInterval > 0, "trainingInterval must be > 0");
    require(microRamEntries > 0, "microRamEntries must be > 0");
    require(predictionCacheEntries > 0,
            "predictionCacheEntries must be > 0");
    require(prbEntries > 0, "prbEntries must be > 0");
    require(numMicrocontexts > 0, "numMicrocontexts must be > 0");
    require(builder.mcbEntries >= 1,
            "builder.mcbEntries must be >= 1 (got " +
                std::to_string(builder.mcbEntries) + ")");
    require(buildLatency >= 0,
            "buildLatency must be >= 0 (got " +
                std::to_string(buildLatency) + ")");
    require(!throttleEnabled || throttleWindow > 0,
            "throttleWindow must be > 0 when the throttle is on");
    require(vpredEntries > 0, "vpredEntries must be > 0");

    require(maxInsts > 0, "maxInsts must be > 0");
    require(maxCycles > 0, "maxCycles must be > 0");

    // A sample retains every Stats counter plus the gauges (~450
    // bytes); refuse intervals that could ask for an absurd series.
    if (sampleInterval > 0) {
        uint64_t worst_case_samples = maxCycles / sampleInterval;
        require(worst_case_samples <= 50'000'000,
                "sampleInterval " + std::to_string(sampleInterval) +
                    " is too fine for maxCycles " +
                    std::to_string(maxCycles) + " (would retain up "
                    "to " + std::to_string(worst_case_samples) +
                    " samples); raise sampleInterval or lower "
                    "maxCycles");
    }
    require(tracePath.empty() || tracePath.back() != '/',
            "tracePath must name a file, not a directory (got '" +
                tracePath + "')");

    std::string fault_diag = faults.validate();
    if (!fault_diag.empty())
        out.push_back(fault_diag);

    return out;
}

void
MachineConfig::validateOrThrow() const
{
    std::vector<std::string> diags = validate();
    if (diags.empty())
        return;
    std::string joined;
    for (const std::string &diag : diags) {
        if (!joined.empty())
            joined += "; ";
        joined += diag;
    }
    throw SimError(ErrorCode::ConfigInvalid, "machine_config", joined);
}

std::string
MachineConfig::toString() const
{
    char buf[2048];
    std::snprintf(buf, sizeof(buf),
        "machine model:\n"
        "  fetch/decode/rename : %d-wide, %d branch preds/cycle, "
        "%d I-cache lines/cycle, front-end depth %d\n"
        "  execution core      : %d-entry window, %d FUs, "
        "redirect penalty %d (total mispredict penalty %d)\n"
        "  L1I                 : %llu KB %u-way, %d cycles\n"
        "  L1D                 : %llu KB %u-way, %d cycles\n"
        "  L2                  : %llu KB %u-way, +%d cycles\n"
        "  DRAM                : +%d cycles\n"
        "  direction predictor : %s (%lluK-entry components, "
        "%lluK-entry selector)\n"
        "  target cache        : %lluK entries; RAS depth %u\n"
        "mechanism (%s):\n"
        "  path n = %d, T = %.2f, path cache %u entries "
        "(%u-way, training interval %u)\n"
        "  MicroRAM %u routines, prediction cache %u entries\n"
        "  PRB %u, MCB %d, %u microcontexts, build latency %d, "
        "pruning %s\n",
        fetchWidth, maxBranchPredsPerCycle, maxICacheLinesPerCycle,
        frontendDepth, windowSize, numFUs, redirectPenalty,
        frontendDepth + redirectPenalty,
        static_cast<unsigned long long>(mem.l1iSize / 1024),
        mem.l1iAssoc, mem.l1Latency,
        static_cast<unsigned long long>(mem.l1dSize / 1024),
        mem.l1dAssoc, mem.l1Latency,
        static_cast<unsigned long long>(mem.l2Size / 1024),
        mem.l2Assoc, mem.l2Latency, mem.dramLatency,
        bpred::predictorKindName(predictor),
        static_cast<unsigned long long>(bpredComponentEntries / 1024),
        static_cast<unsigned long long>(bpredSelectorEntries / 1024),
        static_cast<unsigned long long>(targetCacheEntries / 1024),
        rasDepth, modeName(mode), pathN, difficultyThreshold,
        pathCacheEntries, pathCacheAssoc, trainingInterval,
        microRamEntries, predictionCacheEntries, prbEntries,
        builder.mcbEntries, numMicrocontexts, buildLatency,
        builder.pruningEnabled ? "on" : "off");
    return buf;
}

} // namespace sim
} // namespace ssmt
