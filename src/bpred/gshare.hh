/**
 * @file
 * gshare global-history branch direction predictor (McFarling).
 *
 * One half of the paper's Table 3 "128K-entry gshare/PAs hybrid".
 */

#ifndef SSMT_BPRED_GSHARE_HH
#define SSMT_BPRED_GSHARE_HH

#include <cstdint>

#include "bpred/sat_counter.hh"
#include "sim/table_pool.hh"

namespace ssmt
{
namespace bpred
{

class Gshare
{
  public:
    /**
     * @param num_entries  PHT size; must be a power of two.
     * @param history_bits global-history width; 0 derives
     *                     log2(num_entries). The full [1,64] range
     *                     is supported — 64 keeps every outcome bit
     *                     (mask computed without the 1<<64 shift,
     *                     which is undefined).
     */
    explicit Gshare(uint64_t num_entries = 128 * 1024,
                    int history_bits = 0);

    // predict/update run once per fetched conditional branch (tens
    // of millions of calls per run), so they live in the header.

    /** Predict direction for the branch at @p pc. */
    bool predict(uint64_t pc) const { return pht_[index(pc)].predictTaken(); }

    /** Train the indexed counter and shift @p taken into history. */
    void
    update(uint64_t pc, bool taken)
    {
        pht_[index(pc)].update(taken);
        pushHistory(taken);
    }

    /** predict() + update() in one PHT probe: returns the pre-update
     *  prediction the split calls would have produced. */
    bool
    predictAndTrain(uint64_t pc, bool taken)
    {
        Counter2 &counter = pht_[index(pc)];
        bool pred = counter.predictTaken();
        counter.update(taken);
        pushHistory(taken);
        return pred;
    }

    /** Shift an outcome into the global history without training
     *  (used for unconditional taken control flow, if desired). */
    void
    pushHistory(bool taken)
    {
        history_ = ((history_ << 1) | (taken ? 1 : 0)) & histMask_;
    }

    uint64_t history() const { return history_; }
    uint64_t numEntries() const { return pht_.size(); }
    int historyBits() const { return historyBits_; }

  private:
    sim::TableVector<Counter2> pht_;
    uint64_t mask_;
    uint64_t histMask_;     ///< precomputed, safe for 64-bit history
    uint64_t history_ = 0;
    int historyBits_;

    uint64_t index(uint64_t pc) const { return (pc ^ history_) & mask_; }
};

} // namespace bpred
} // namespace ssmt

#endif // SSMT_BPRED_GSHARE_HH

