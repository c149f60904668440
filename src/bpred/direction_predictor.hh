/**
 * @file
 * The direction-predictor seam: every conditional-branch direction
 * backend (the 2002 gshare/PAs hybrid, TAGE, hashed perceptron)
 * implements this interface, and FrontEndPredictor/SsmtCore select
 * one through MachineConfig::predictor.
 *
 * Backend contract (see DESIGN.md "DirectionPredictor seam"):
 *
 *  - **Determinism.** predict() is const and side-effect free;
 *    update() evolves state as a pure function of (pc, taken) and
 *    prior state. No randomness, clocks, or allocation-order
 *    dependence: two instances fed the same stream predict alike and
 *    count alike, regardless of host, thread, or --jobs count.
 *  - **Fused == split.** predictAndTrain(pc, taken) must return
 *    exactly predict(pc) and leave exactly the state update(pc,
 *    taken) would have left. Backends may fuse the table probes for
 *    speed, but never diverge the result (property-tested).
 *  - **Stats.** predictions()/mispredictions() count every trained
 *    branch, charged against the pre-update prediction.
 */

#ifndef SSMT_BPRED_DIRECTION_PREDICTOR_HH
#define SSMT_BPRED_DIRECTION_PREDICTOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ssmt
{
namespace bpred
{

/** Which direction backend a machine runs. Names (predictorKindName)
 *  participate in configFingerprint, so a stored result computed
 *  under one backend is never served for another. */
enum class PredictorKind : uint8_t
{
    /** Table 3 gshare/PAs hybrid with a selector — the paper's
     *  baseline and the default everywhere. */
    Hybrid,
    /** Tagged geometric-history tables over a bimodal base. */
    Tage,
    /** Hashed perceptron over segmented global history. */
    Perceptron
};

const char *predictorKindName(PredictorKind kind);

/** Every kind, in enum order (for sweeps). */
const std::vector<PredictorKind> &allPredictorKinds();

/** Inverse of predictorKindName ("hybrid", "tage", "perceptron").
 *  @return false on an unknown name. */
bool parsePredictorKind(const std::string &name, PredictorKind *out);

class DirectionPredictor
{
  public:
    virtual ~DirectionPredictor() = default;

    /** Stable backend name; equals predictorKindName(kind). */
    virtual const char *name() const = 0;

    /** Predict direction for the branch at @p pc. Const: probes
     *  tables, never trains. */
    virtual bool predict(uint64_t pc) const = 0;

    /** Train with the actual @p taken outcome (and count the
     *  pre-update prediction into the stats). */
    virtual void update(uint64_t pc, bool taken) = 0;

    /** predict() + update() fused; must be bit-equivalent to the
     *  split calls (see the header contract). */
    virtual bool predictAndTrain(uint64_t pc, bool taken) = 0;

    uint64_t predictions() const { return predictions_; }
    uint64_t mispredictions() const { return mispredictions_; }

    /** Misprediction rate over all trained branches so far. */
    double
    mispredictRate() const
    {
        return predictions_ == 0
                   ? 0.0
                   : static_cast<double>(mispredictions_) /
                         static_cast<double>(predictions_);
    }

  protected:
    /** Charge one trained branch against the pre-update prediction. */
    void
    recordOutcome(bool predicted, bool taken)
    {
        predictions_++;
        if (predicted != taken)
            mispredictions_++;
    }

    uint64_t predictions_ = 0;
    uint64_t mispredictions_ = 0;
};

/**
 * Geometry seed for any backend. The hybrid consumes the entries
 * directly (Table 3); TAGE and the perceptron derive their (smaller)
 * table geometries from componentEntries so all three compete at
 * comparable storage budgets.
 */
struct DirectionConfig
{
    PredictorKind kind = PredictorKind::Hybrid;
    uint64_t componentEntries = 128 * 1024;
    uint64_t selectorEntries = 64 * 1024;
    /** gshare global-history width in bits; 0 derives
     *  log2(componentEntries). 64 is the legal maximum. */
    uint32_t historyBits = 0;
};

/** Instantiate the configured backend. */
std::unique_ptr<DirectionPredictor>
makeDirectionPredictor(const DirectionConfig &cfg);

} // namespace bpred
} // namespace ssmt

#endif // SSMT_BPRED_DIRECTION_PREDICTOR_HH
