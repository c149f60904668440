#include "bpred/gshare.hh"

#include "sim/logging.hh"

namespace ssmt
{
namespace bpred
{

Gshare::Gshare(uint64_t num_entries, int history_bits)
    : pht_(num_entries), mask_(num_entries - 1)
{
    SSMT_ASSERT((num_entries & mask_) == 0,
                "gshare PHT size must be a power of two");
    if (history_bits == 0) {
        // Derive log2(num_entries); bounded at 63 because the
        // largest power-of-two uint64_t PHT size is 1 << 63.
        history_bits = 0;
        while (history_bits < 63 &&
               (1ull << history_bits) < num_entries)
            history_bits++;
        if (history_bits == 0)
            history_bits = 1;
    }
    SSMT_ASSERT(history_bits >= 1 && history_bits <= 64,
                "gshare history width must be in [1,64]");
    historyBits_ = history_bits;
    // (1 << 64) is undefined; the 64-bit mask must be spelled ~0.
    histMask_ = historyBits_ == 64 ? ~0ull
                                   : (1ull << historyBits_) - 1;
}

} // namespace bpred
} // namespace ssmt

