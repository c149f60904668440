#include "bpred/tage.hh"

#include "sim/logging.hh"

namespace ssmt
{
namespace bpred
{

Tage::Tage(uint64_t base_entries, uint64_t tagged_entries)
    : base_(base_entries), baseMask_(base_entries - 1),
      taggedEntries_(tagged_entries),
      idxMask_(static_cast<uint32_t>(tagged_entries - 1))
{
    SSMT_ASSERT((base_entries & baseMask_) == 0,
                "TAGE base table size must be a power of two");
    SSMT_ASSERT((tagged_entries & (tagged_entries - 1)) == 0,
                "TAGE tagged table size must be a power of two");
    SSMT_ASSERT(tagged_entries >= 2 && tagged_entries <= (1u << 30),
                "TAGE tagged table size out of range");

    int idx_bits = 0;
    while ((1ull << idx_bits) < tagged_entries)
        idx_bits++;

    for (int i = 0; i < kNumTables; i++) {
        tables_[i].assign(tagged_entries, Entry{});
        foldIdx_[i].origLen = kHistoryLengths[i];
        foldIdx_[i].compLen =
            kHistoryLengths[i] < idx_bits ? kHistoryLengths[i]
                                          : idx_bits;
        foldTag0_[i].origLen = kHistoryLengths[i];
        foldTag0_[i].compLen =
            kHistoryLengths[i] < kTagBits ? kHistoryLengths[i]
                                          : kTagBits;
        foldTag1_[i].origLen = kHistoryLengths[i];
        foldTag1_[i].compLen =
            kHistoryLengths[i] < kTagBits - 1 ? kHistoryLengths[i]
                                              : kTagBits - 1;
    }
}

bool
Tage::historyBit(int pos) const
{
    return (hist_[pos / 64] >> (pos % 64)) & 1;
}

void
Tage::pushHistory(bool taken)
{
    // Shift the window left one bit; folded registers consume the
    // entering bit and, per table, the bit aging out of their view.
    for (int i = 0; i < kNumTables; i++) {
        uint32_t out = historyBit(kHistoryLengths[i] - 1) ? 1 : 0;
        uint32_t in = taken ? 1 : 0;
        foldIdx_[i].update(in, out);
        foldTag0_[i].update(in, out);
        foldTag1_[i].update(in, out);
    }
    for (int w = static_cast<int>(hist_.size()) - 1; w > 0; w--)
        hist_[w] = (hist_[w] << 1) | (hist_[w - 1] >> 63);
    hist_[0] = (hist_[0] << 1) | (taken ? 1 : 0);
}

Tage::Lookup
Tage::lookup(uint64_t pc) const
{
    Lookup lk;
    for (int i = 0; i < kNumTables; i++) {
        lk.idx[i] = static_cast<uint32_t>(
                        pc ^ (pc >> (i + 2)) ^ foldIdx_[i].comp) &
                    idxMask_;
        lk.tag[i] = static_cast<uint16_t>(
            (pc ^ foldTag0_[i].comp ^ (foldTag1_[i].comp << 1)) &
            ((1u << kTagBits) - 1));
    }
    for (int i = kNumTables - 1; i >= 0; i--) {
        if (tables_[i][lk.idx[i]].tag == lk.tag[i]) {
            if (lk.provider < 0) {
                lk.provider = i;
            } else {
                lk.alt = i;
                break;
            }
        }
    }

    bool base_pred = base_[pc & baseMask_].predictTaken();
    lk.altPred = lk.alt >= 0
                     ? tables_[lk.alt][lk.idx[lk.alt]].ctr >=
                           kCtrWeakTaken
                     : base_pred;
    if (lk.provider >= 0) {
        const Entry &e = tables_[lk.provider][lk.idx[lk.provider]];
        lk.providerPred = e.ctr >= kCtrWeakTaken;
        // Newly-allocated entries (weak counter, no usefulness yet)
        // defer to the alternate prediction until they prove out.
        bool weak = (e.ctr == kCtrWeakTaken ||
                     e.ctr == kCtrWeakTaken - 1) &&
                    e.useful == 0;
        lk.pred = weak ? lk.altPred : lk.providerPred;
    } else {
        lk.providerPred = base_pred;
        lk.pred = base_pred;
    }
    return lk;
}

bool
Tage::predict(uint64_t pc) const
{
    return lookup(pc).pred;
}

void
Tage::train(const Lookup &lk, uint64_t pc, bool taken)
{
    recordOutcome(lk.pred, taken);

    // Allocate into a longer table when the final prediction was
    // wrong and a longer table exists: lowest-numbered candidate
    // whose slot has usefulness 0 wins (deterministic allocation);
    // otherwise every candidate decays.
    if (lk.pred != taken && lk.provider < kNumTables - 1) {
        int start = lk.provider + 1;
        int victim = -1;
        for (int j = start; j < kNumTables; j++) {
            if (tables_[j][lk.idx[j]].useful == 0) {
                victim = j;
                break;
            }
        }
        if (victim >= 0) {
            Entry &e = tables_[victim][lk.idx[victim]];
            e.tag = lk.tag[victim];
            e.ctr = static_cast<uint8_t>(
                taken ? kCtrWeakTaken : kCtrWeakTaken - 1);
            e.useful = 0;
        } else {
            for (int j = start; j < kNumTables; j++) {
                Entry &e = tables_[j][lk.idx[j]];
                if (e.useful > 0)
                    e.useful--;
            }
        }
    }

    // Train the provider (or the base when nothing matched), and
    // credit usefulness when the provider beat the alternate.
    if (lk.provider >= 0) {
        Entry &e = tables_[lk.provider][lk.idx[lk.provider]];
        if (taken) {
            if (e.ctr < kCtrMax)
                e.ctr++;
        } else {
            if (e.ctr > 0)
                e.ctr--;
        }
        if (lk.providerPred != lk.altPred) {
            if (lk.providerPred == taken) {
                if (e.useful < kUsefulMax)
                    e.useful++;
            } else {
                if (e.useful > 0)
                    e.useful--;
            }
        }
    } else {
        base_[pc & baseMask_].update(taken);
    }

    // Graceful aging: halve every usefulness counter periodically so
    // stale entries become reclaimable.
    tick_++;
    if (tick_ >= kResetPeriod) {
        tick_ = 0;
        for (int i = 0; i < kNumTables; i++)
            for (Entry &e : tables_[i])
                e.useful >>= 1;
    }

    pushHistory(taken);
}

void
Tage::update(uint64_t pc, bool taken)
{
    train(lookup(pc), pc, taken);
}

bool
Tage::predictAndTrain(uint64_t pc, bool taken)
{
    Lookup lk = lookup(pc);
    train(lk, pc, taken);
    return lk.pred;
}

} // namespace bpred
} // namespace ssmt
