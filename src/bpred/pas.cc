#include "bpred/pas.hh"

#include "sim/snapshot.hh"

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

void
Pas::save(sim::SnapshotWriter &w) const
{
    w.u64Array("bht", bht_.data(), bht_.size());
    std::vector<uint64_t> pht(pht_.size());
    for (size_t i = 0; i < pht_.size(); i++)
        pht[i] = pht_[i].value();
    w.u64Array("pht", pht);
}

void
Pas::restore(sim::SnapshotReader &r)
{
    r.u64ArrayInto("bht", bht_.data(), bht_.size());
    std::vector<uint64_t> pht = r.u64Array("pht");
    r.requireSize("pht", pht.size(), pht_.size());
    for (size_t i = 0; i < pht_.size(); i++)
        pht_[i] = Counter2(static_cast<uint8_t>(pht[i]));
}

static_assert(sim::SnapshotterLike<Pas>);

} // namespace bpred
} // namespace ssmt

