#include "cpu/fu_pool.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "sim/snapshot.hh"

namespace ssmt
{
namespace cpu
{

namespace
{

/** A restored claim may lie at most this far past the capture clock,
 *  so a corrupt document cannot ask for a ring over 16 MiB. The
 *  suite's longest scheduling distance is 684 cycles. */
constexpr uint64_t kMaxRestoredSpan = uint64_t(1) << 20;

} // namespace

FuPool::FuPool(int num_fus)
    : numFus_(num_fus), slots_(kInitialSlots), mask_(kInitialSlots - 1)
{
    SSMT_ASSERT(num_fus > 0, "need at least one FU");
}

void
FuPool::grow(uint64_t now)
{
    // Claims that were distinct modulo the old length stay distinct
    // modulo twice it, so re-placing never collides.
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot &slot : old)
        if (slot.used != 0 && slot.cycle >= now)
            slots_[slot.cycle & mask_] = slot;
}

void
FuPool::save(sim::SnapshotWriter &w) const
{
    w.u64("granted", granted_);
    // Only claims at/after the capture clock carry information (an
    // older stamp is reused as if free), and they are written in
    // cycle order so the bytes do not depend on the ring length.
    std::vector<uint64_t> cycle, used;
    for (const Slot &slot : slots_)
        if (slot.used != 0 && slot.cycle >= w.clock())
            cycle.push_back(slot.cycle);
    std::sort(cycle.begin(), cycle.end());
    for (uint64_t c : cycle)
        used.push_back(slots_[c & mask_].used);
    w.u64Array("cycle", cycle);
    w.u64Array("used", used);
}

void
FuPool::restore(sim::SnapshotReader &r)
{
    granted_ = r.u64("granted");
    std::fill(slots_.begin(), slots_.end(), Slot{});
    std::vector<uint64_t> cycle = r.u64Array("cycle");
    std::vector<uint64_t> used = r.u64Array("used");
    r.requireSize("used", used.size(), cycle.size());
    const uint64_t now = r.clock();
    for (size_t i = 0; i < cycle.size(); i++) {
        if (cycle[i] < now || cycle[i] - now >= kMaxRestoredSpan)
            r.fail("fu pool: claim at cycle " +
                   std::to_string(cycle[i]) +
                   " is outside the live span from clock " +
                   std::to_string(now));
        if (i > 0 && cycle[i] <= cycle[i - 1])
            r.fail("fu pool: claim cycles are not strictly ascending");
        if (used[i] == 0 || used[i] > static_cast<uint64_t>(numFus_))
            r.fail("fu pool: claim uses " + std::to_string(used[i]) +
                   " of " + std::to_string(numFus_) + " slots");
        // Every placed claim is live, so a taken slot means grow.
        while (slots_[cycle[i] & mask_].used != 0)
            grow(now);
        slots_[cycle[i] & mask_] = {cycle[i], static_cast<int>(used[i])};
    }
}

static_assert(sim::SnapshotterLike<FuPool>);

} // namespace cpu
} // namespace ssmt
