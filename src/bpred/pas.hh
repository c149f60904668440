/**
 * @file
 * PAs per-address two-level branch direction predictor (Yeh & Patt).
 *
 * A first-level table of per-branch local histories selects a counter
 * in a second-level pattern history table. The other half of the
 * Table 3 "128K-entry gshare/PAs hybrid".
 */

#ifndef SSMT_BPRED_PAS_HH
#define SSMT_BPRED_PAS_HH

#include <cstdint>

#include "bpred/sat_counter.hh"
#include "sim/table_pool.hh"

namespace ssmt
{
namespace bpred
{

class Pas
{
  public:
    /**
     * @param num_bht_entries first-level (history) table entries
     * @param history_bits    local history length
     * @param num_pht_entries second-level counter table entries
     */
    Pas(uint64_t num_bht_entries = 4096, int history_bits = 12,
        uint64_t num_pht_entries = 128 * 1024);

    // predict/update run once per fetched conditional branch (tens
    // of millions of calls per run), so they live in the header.

    /** Predict direction for the branch at @p pc. */
    bool predict(uint64_t pc) const { return pht_[phtIndex(pc)].predictTaken(); }

    /** Train the counter and shift @p taken into the local history. */
    void
    update(uint64_t pc, bool taken)
    {
        pht_[phtIndex(pc)].update(taken);
        uint64_t &hist = bht_[pc & bhtMask_];
        hist = ((hist << 1) | (taken ? 1 : 0)) &
               ((1ull << historyBits_) - 1);
    }

    /** predict() + update() with the BHT row and PHT counter each
     *  located once: returns the pre-update prediction the split
     *  calls would have produced. */
    bool
    predictAndTrain(uint64_t pc, bool taken)
    {
        uint64_t &hist = bht_[pc & bhtMask_];
        Counter2 &counter = pht_[((hist << 5) ^ pc) & phtMask_];
        bool pred = counter.predictTaken();
        counter.update(taken);
        hist = ((hist << 1) | (taken ? 1 : 0)) &
               ((1ull << historyBits_) - 1);
        return pred;
    }

    /** @return the local history of @p pc (for tests). */
    uint64_t localHistory(uint64_t pc) const { return bht_[pc & bhtMask_]; }

  private:
    sim::TableVector<uint64_t> bht_;
    sim::TableVector<Counter2> pht_;
    uint64_t bhtMask_;
    uint64_t phtMask_;
    int historyBits_;

    uint64_t
    phtIndex(uint64_t pc) const
    {
        uint64_t hist = bht_[pc & bhtMask_];
        // Concatenate local history with low pc bits to reduce
        // aliasing between branches sharing a history pattern.
        return ((hist << 5) ^ pc) & phtMask_;
    }
};

} // namespace bpred
} // namespace ssmt

#endif // SSMT_BPRED_PAS_HH

