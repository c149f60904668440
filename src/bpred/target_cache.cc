#include "bpred/target_cache.hh"

#include "sim/logging.hh"

namespace ssmt
{
namespace bpred
{

TargetCache::TargetCache(uint64_t num_entries)
    : table_(num_entries, 0), mask_(num_entries - 1)
{
    SSMT_ASSERT((num_entries & mask_) == 0,
                "target cache size must be a power of two");
}

uint64_t
TargetCache::index(uint64_t pc) const
{
    return (pc ^ (history_ * 0x9e3779b97f4a7c15ull >> 16)) & mask_;
}

uint64_t
TargetCache::predict(uint64_t pc) const
{
    return table_[index(pc)];
}

void
TargetCache::update(uint64_t pc, uint64_t target)
{
    table_[index(pc)] = target;
    history_ = (history_ << 4) ^ target;
}

} // namespace bpred
} // namespace ssmt
