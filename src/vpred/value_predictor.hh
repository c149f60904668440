/**
 * @file
 * Constant/stride value predictor with integrated confidence, used
 * for the pruning optimization (paper Sections 3.2.3 and 4.2.5).
 *
 * Two instances exist in the machine back-end: a *value* predictor
 * trained on register results and an *address* predictor trained on
 * load base addresses. Both are trained on the primary thread's
 * retirement stream and queried by the Vp_Inst / Ap_Inst
 * micro-instructions.
 *
 * The paper restricts the predictors to "constant and stride-based
 * predictions" precisely so that a prediction can be generated for an
 * instance *k occurrences ahead* of the last retired one:
 * `value = last + stride * k`.
 */

#ifndef SSMT_VPRED_VALUE_PREDICTOR_HH
#define SSMT_VPRED_VALUE_PREDICTOR_HH

#include <cstdint>
#include <vector>

namespace ssmt
{
namespace vpred
{

class ValuePredictor
{
  public:
    /**
     * @param num_entries        table size (power of two)
     * @param confidence_max     saturation point of the counter
     * @param confidence_thresh  counter value at/above which the
     *                           entry is considered confident
     */
    explicit ValuePredictor(uint64_t num_entries = 4096,
                            int confidence_max = 7,
                            int confidence_thresh = 4);

    // train() runs twice per retired register-writing instruction
    // (value and address instance) and confident() twice more, so
    // the direct-mapped probe lives in the header.

    /**
     * Train with a retired instance of static instruction @p pc
     * producing @p value. Stride agreement raises confidence; a
     * stride change re-learns the stride and zeroes confidence.
     */
    void
    train(uint64_t pc, uint64_t value)
    {
        trainings_++;
        Entry &entry = table_[pc & mask_];
        if (!entry.valid || entry.tag != pc) {
            entry = Entry{true, pc, value, 0, 0};
            return;
        }
        int64_t new_stride =
            static_cast<int64_t>(value - entry.lastValue);
        if (new_stride == entry.stride) {
            if (entry.conf < confMax_)
                entry.conf++;
        } else {
            entry.stride = new_stride;
            entry.conf = 0;
        }
        entry.lastValue = value;
    }

    /**
     * Predict the value of the instance @p ahead occurrences after
     * the last trained one (ahead >= 1).
     */
    uint64_t
    predict(uint64_t pc, uint64_t ahead = 1) const
    {
        const Entry *entry = find(pc);
        if (!entry)
            return 0;
        return entry->lastValue +
               static_cast<uint64_t>(entry->stride) * ahead;
    }

    /** @return true if @p pc currently predicts confidently. */
    bool
    confident(uint64_t pc) const
    {
        const Entry *entry = find(pc);
        return entry && entry->conf >= confThresh_;
    }

    /** Current confidence counter value (for tests). */
    int confidence(uint64_t pc) const;

    /** Learned stride (for tests). */
    int64_t stride(uint64_t pc) const;

    uint64_t trainings() const { return trainings_; }

  private:
    struct Entry
    {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t lastValue = 0;
        int64_t stride = 0;
        int conf = 0;
    };

    std::vector<Entry> table_;
    uint64_t mask_;
    int confMax_;
    int confThresh_;
    uint64_t trainings_ = 0;

    const Entry *
    find(uint64_t pc) const
    {
        const Entry &entry = table_[pc & mask_];
        if (entry.valid && entry.tag == pc)
            return &entry;
        return nullptr;
    }
};

} // namespace vpred
} // namespace ssmt

#endif // SSMT_VPRED_VALUE_PREDICTOR_HH

