/**
 * @file
 * MachineConfig: every knob of the simulated machine. Defaults
 * reproduce the paper's Table 3 baseline plus the mechanism
 * parameters used in Section 5 (8K-entry Path Cache, training
 * interval 32, T = .10, n = 10, 8K MicroRAM, 128-entry Prediction
 * Cache, 512-entry PRB, 100-cycle build latency).
 */

#ifndef SSMT_SIM_MACHINE_CONFIG_HH
#define SSMT_SIM_MACHINE_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bpred/direction_predictor.hh"
#include "core/uthread_builder.hh"
#include "memory/hierarchy.hh"
#include "sim/faultinject.hh"

namespace ssmt
{
namespace sim
{

/** How the difficult-path mechanism participates in the run. */
enum class Mode : uint8_t
{
    /** Plain Table 3 machine; hardware predictions only. */
    Baseline,
    /** Figure 6: terminating branches of promoted difficult paths
     *  are predicted perfectly; no microthreads execute. */
    OracleDifficultPath,
    /** Figure 7: the full mechanism, microthreads and all. */
    Microthread,
    /** Figure 7 "overhead only": microthreads spawn and execute but
     *  their predictions are never used. */
    MicrothreadNoPredictions,
    /** Every branch predicted perfectly — the paper's introduction
     *  bound ("a twofold improvement solely by eliminating the
     *  remaining mispredictions"). */
    OracleAllBranches
};

const char *modeName(Mode mode);

/** Every mode, in enum order. */
const std::vector<Mode> &allModes();

/** Inverse of modeName ("baseline", "microthread", ...).
 *  @return false on an unknown name. */
bool parseMode(const std::string &name, Mode *out);

struct MachineConfig
{
    // ---- Fetch / decode / rename (Table 3) ----
    int fetchWidth = 16;
    int maxBranchPredsPerCycle = 3;
    int maxICacheLinesPerCycle = 3;
    /** Fetch-to-execute depth: 3 (I-cache) + 1 (decode) + 4 (rename). */
    int frontendDepth = 8;
    /** Extra cycles after branch resolution before refetch; with the
     *  front-end depth this yields the paper's 20-cycle penalty. */
    int redirectPenalty = 12;

    // ---- Execution core (Table 3) ----
    int windowSize = 512;
    int numFUs = 16;
    int l1dReadPorts = 4;

    // ---- Memory (Table 3) ----
    memory::HierarchyConfig mem;

    // ---- Branch predictors (Table 3) ----
    /** Conditional-direction backend: the Table 3 hybrid (default),
     *  or a modern competitor (tage, perceptron) for the "is it
     *  still worth it?" cross study. Participates in
     *  configFingerprint, so a result stored under one backend is
     *  never served for another. */
    bpred::PredictorKind predictor = bpred::PredictorKind::Hybrid;
    uint64_t bpredComponentEntries = 128 * 1024;
    uint64_t bpredSelectorEntries = 64 * 1024;
    /** gshare global-history width in bits; 0 derives
     *  log2(bpredComponentEntries). Valid range [0,64]. */
    uint32_t bpredHistoryBits = 0;
    uint64_t targetCacheEntries = 64 * 1024;
    uint32_t rasDepth = 32;

    /** The direction-backend geometry this config implies. */
    bpred::DirectionConfig
    directionConfig() const
    {
        return {predictor, bpredComponentEntries,
                bpredSelectorEntries, bpredHistoryBits};
    }

    // ---- Difficult-path mechanism (Section 5) ----
    Mode mode = Mode::Baseline;
    int pathN = 10;                     ///< taken branches per path
    double difficultyThreshold = 0.10;  ///< T
    uint32_t pathCacheEntries = 8192;
    uint32_t pathCacheAssoc = 8;
    uint32_t trainingInterval = 32;
    uint32_t microRamEntries = 8192;
    uint32_t predictionCacheEntries = 128;
    uint32_t prbEntries = 512;
    core::BuilderConfig builder;        ///< MCB size, optimizations
    uint32_t numMicrocontexts = 8;
    int buildLatency = 100;             ///< cycles per build
    bool rebuildOnViolation = true;     ///< Section 4.2.4

    /** Usefulness-feedback throttle (Section 5.3: "we are
     *  experimenting with feedback mechanisms to throttle
     *  microthread usage"): routines whose spawns rarely deliver a
     *  consumed prediction are demoted and suppressed. */
    bool throttleEnabled = false;
    uint32_t throttleWindow = 64;       ///< spawns per evaluation
    double throttleMinUseful = 0.02;    ///< useful/spawn floor

    /** Compiler-provided difficult-path hints (the paper's
     *  compile-time variant, Section 4): hinted paths promote on
     *  first sight instead of waiting out a training interval. */
    std::vector<uint64_t> staticDifficultHints;

    // ---- Value/address predictors (pruning substrate) ----
    uint64_t vpredEntries = 4096;
    int vpredConfMax = 7;
    int vpredConfThresh = 4;
    int vpInstLatency = 2;              ///< Vp_Inst/Ap_Inst latency

    // ---- Run control ----
    uint64_t maxInsts = 100'000'000;    ///< retire-count safety stop
    uint64_t maxCycles = 2'000'000'000; ///< cycle safety stop
    /** Pipeline-event trace ring capacity; 0 disables the ring.
     *  validate() refuses more than 50,000,000 records. */
    size_t traceCapacity = 0;

    // ---- Observability (sim/metrics.hh, cpu/trace.hh) ----
    /** Snapshot the full Stats counter set plus occupancy gauges
     *  every N cycles into a deterministic time-series (and feed the
     *  per-component occupancy histograms); 0 disables sampling. */
    uint64_t sampleInterval = 0;
    /** Stream every pipeline-trace event as one JSON line (JSONL)
     *  to this file — the unbounded capture mode, independent of the
     *  bounded traceCapacity ring. Empty disables streaming; a
     *  file the core cannot open is SimError(IoError). */
    std::string tracePath;

    /** Seeded fault injection into speculative state (disabled by
     *  default; see sim/faultinject.hh). */
    FaultPlan faults;

    /**
     * Check every knob for a value the simulator cannot honor.
     * @return one actionable diagnostic per problem (empty = valid).
     */
    std::vector<std::string> validate() const;

    /** Throw SimError(ConfigInvalid) listing every validate()
     *  diagnostic; no-op on a valid config. */
    void validateOrThrow() const;

    /** Human-readable dump (Table 3-style). */
    std::string toString() const;
};

/**
 * Structural fingerprint of @p config, `v1;key=value;...` over every
 * knob that shapes the machine; every store key hashes these bytes,
 * so they must not change. Deliberately *excludes* the mechanism
 * mode (a store key names it beside the fingerprint) and the pure
 * run-control knobs (maxInsts/maxCycles, trace capture).
 */
std::string configFingerprint(const MachineConfig &config);

/**
 * Apply one `key=value` override to @p config. Keys and value syntax
 * are the fingerprint's own (booleans 0/1, enums by name, hints
 * comma-separated), so each `key=value` of a fingerprint applies
 * back; `mode=<modeName>` is accepted too. Throws
 * SimError(ConfigInvalid) naming @p entry on an unknown key or an
 * unparsable value.
 */
void applyConfigSetting(MachineConfig &config, const std::string &entry);

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_MACHINE_CONFIG_HH

