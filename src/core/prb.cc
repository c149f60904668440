#include "core/prb.hh"

#include "sim/logging.hh"

namespace ssmt
{
namespace core
{

Prb::Prb(uint32_t capacity) : ring_(capacity)
{
    SSMT_ASSERT(capacity > 0, "PRB capacity must be positive");
}

const PrbEntry &
Prb::at(uint32_t pos) const
{
    SSMT_ASSERT(pos < size_, "PRB position out of range");
    uint32_t idx =
        (head_ + static_cast<uint32_t>(ring_.size()) - size_ + pos) %
        ring_.size();
    return ring_[idx];
}

} // namespace core
} // namespace ssmt

