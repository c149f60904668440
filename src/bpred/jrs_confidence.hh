/**
 * @file
 * JRS branch-confidence estimator (Jacobsen, Rotenberg & Smith,
 * MICRO 1996 — the paper's reference [10]).
 *
 * "Path-based confidence mechanisms [10] have demonstrated that the
 * predictability of a branch is correlated to the control-flow path
 * leading up to it" is the observation the whole difficult-path
 * mechanism builds on; this class is that mechanism: a table of
 * resetting counters indexed by a hash of the branch address and a
 * history (global outcomes or a Path_Id), counting consecutive
 * correct predictions. A saturated-enough counter marks the branch
 * instance high-confidence.
 */

#ifndef SSMT_BPRED_JRS_CONFIDENCE_HH
#define SSMT_BPRED_JRS_CONFIDENCE_HH

#include <cstdint>
#include <vector>

namespace ssmt
{
namespace bpred
{

class JrsConfidence
{
  public:
    /**
     * @param num_entries table size (power of two)
     * @param threshold   consecutive correct predictions required
     *                    for high confidence
     * @param max_count   counter saturation point
     */
    explicit JrsConfidence(uint64_t num_entries = 4096,
                           int threshold = 8, int max_count = 15);

    /** High confidence for branch @p pc in context @p history? */
    bool highConfidence(uint64_t pc, uint64_t history) const;

    /** Raw counter value (for analyses). */
    int count(uint64_t pc, uint64_t history) const;

    /**
     * Train with the hardware predictor's outcome: correct
     * predictions increment the resetting counter; a misprediction
     * zeroes it.
     */
    void update(uint64_t pc, uint64_t history, bool correct);

    uint64_t updates() const { return updates_; }

  private:
    std::vector<uint8_t> table_;
    uint64_t mask_;
    int threshold_;
    int maxCount_;
    uint64_t updates_ = 0;

    uint64_t index(uint64_t pc, uint64_t history) const;
};

} // namespace bpred
} // namespace ssmt

#endif // SSMT_BPRED_JRS_CONFIDENCE_HH
