/**
 * @file
 * Composite front-end branch predictor, wiring together the Table 3
 * components: a pluggable DirectionPredictor backend for conditional
 * directions (gshare/PAs hybrid by default; TAGE or hashed
 * perceptron via MachineConfig::predictor), the call/return stack
 * for returns, and the target cache for other indirect branches.
 *
 * Direct targets are taken as always available at fetch, modelling
 * the paper's idealized front-end ("in a sense, we are modeling a
 * very efficient trace cache"), so the machine has no BTB and no
 * target lookup for direct branches.
 */

#ifndef SSMT_BPRED_FRONTEND_PREDICTOR_HH
#define SSMT_BPRED_FRONTEND_PREDICTOR_HH

#include <cstdint>
#include <memory>

#include "bpred/direction_predictor.hh"
#include "bpred/ras.hh"
#include "bpred/target_cache.hh"
#include "isa/inst.hh"
#include "sim/logging.hh"

namespace ssmt
{
namespace bpred
{

/** What the hardware predictor said for one fetched branch. */
struct HwPrediction
{
    bool taken = false;         ///< predicted direction
    uint64_t target = 0;        ///< predicted destination if taken
    bool correct = true;        ///< prediction matched the outcome
};

class FrontEndPredictor
{
  public:
    /** Legacy geometry ctor: always the gshare/PAs hybrid. */
    FrontEndPredictor(uint64_t component_entries = 128 * 1024,
                      uint64_t selector_entries = 64 * 1024,
                      uint64_t target_cache_entries = 64 * 1024,
                      uint32_t ras_depth = 32);

    /** Backend-selecting ctor (MachineConfig::predictor plumbs
     *  through here). */
    FrontEndPredictor(const DirectionConfig &direction,
                      uint64_t target_cache_entries,
                      uint32_t ras_depth);

    /**
     * Predict the control-flow instruction at @p pc and immediately
     * train with the actual outcome (execute-at-fetch model; see
     * DESIGN.md section 4).
     *
     * Header-inline: runs once per fetched control-flow instruction
     * (millions of calls per run).
     *
     * @param pc            instruction index of the branch
     * @param inst          the control-flow instruction
     * @param actual_taken  architectural direction
     * @param actual_target architectural destination when taken
     */
    HwPrediction
    predictAndTrain(uint64_t pc, const isa::Inst &inst,
                    bool actual_taken, uint64_t actual_target)
    {
        HwPrediction pred;

        switch (inst.op) {
          case isa::Opcode::J:
            // Direct target, always available at fetch: never
            // mispredicts under the idealized front-end.
            pred.taken = true;
            pred.target = actual_target;
            pred.correct = true;
            break;

          case isa::Opcode::Jal:
            pred.taken = true;
            pred.target = actual_target;
            pred.correct = true;
            ras_.push(pc + 1);
            break;

          case isa::Opcode::Jr:
            pred.taken = true;
            if (inst.rs1 == isa::kRegLink) {
                // Consumes the RAS under its pinned semantics (see
                // ras.hh): an underflowed stack predicts target 0
                // (a guaranteed mispredict counted below) rather
                // than wrapping into a stale entry, and deep call
                // chains silently overwrite the oldest frame.
                pred.target = ras_.pop();
            } else {
                pred.target = targetCache_.predict(pc);
                targetCache_.update(pc, actual_target);
            }
            pred.correct = pred.target == actual_target;
            indPredictions_++;
            if (!pred.correct)
                indMispredicts_++;
            break;

          case isa::Opcode::Jalr:
            pred.taken = true;
            pred.target = targetCache_.predict(pc);
            targetCache_.update(pc, actual_target);
            pred.correct = pred.target == actual_target;
            indPredictions_++;
            if (!pred.correct)
                indMispredicts_++;
            // Indirect call: pushes its return address like Jal; at
            // depth the RAS wraps over the oldest frame (ras.hh).
            ras_.push(pc + 1);
            break;

          default:
            SSMT_ASSERT(inst.isCondBranch(),
                        "predictAndTrain on a non-control "
                        "instruction");
            pred.taken = dir_->predictAndTrain(pc, actual_taken);
            pred.target = static_cast<uint64_t>(inst.imm);
            pred.correct = pred.taken == actual_taken;
            condPredictions_++;
            if (!pred.correct)
                condMispredicts_++;
            break;
        }
        return pred;
    }

    uint64_t condPredictions() const { return condPredictions_; }
    uint64_t condMispredicts() const { return condMispredicts_; }
    uint64_t indirectPredictions() const { return indPredictions_; }
    uint64_t indirectMispredicts() const { return indMispredicts_; }

    /** The active conditional-direction backend. */
    const DirectionPredictor &direction() const { return *dir_; }

  private:
    std::unique_ptr<DirectionPredictor> dir_;
    TargetCache targetCache_;
    Ras ras_;

    uint64_t condPredictions_ = 0;
    uint64_t condMispredicts_ = 0;
    uint64_t indPredictions_ = 0;
    uint64_t indMispredicts_ = 0;
};

} // namespace bpred
} // namespace ssmt

#endif // SSMT_BPRED_FRONTEND_PREDICTOR_HH

