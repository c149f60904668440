#include "cpu/fu_pool.hh"

#include <utility>

namespace ssmt
{
namespace cpu
{

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

} // namespace cpu
} // namespace ssmt
