#include "bpred/pas.hh"

#include "sim/logging.hh"

namespace ssmt
{
namespace bpred
{

Pas::Pas(uint64_t num_bht_entries, int history_bits,
         uint64_t num_pht_entries)
    : bht_(num_bht_entries, 0), pht_(num_pht_entries),
      bhtMask_(num_bht_entries - 1), phtMask_(num_pht_entries - 1),
      historyBits_(history_bits)
{
    SSMT_ASSERT((num_bht_entries & bhtMask_) == 0 &&
                (num_pht_entries & phtMask_) == 0,
                "PAs table sizes must be powers of two");
}

} // namespace bpred
} // namespace ssmt

