#include "bpred/jrs_confidence.hh"

#include "sim/logging.hh"

namespace ssmt
{
namespace bpred
{

JrsConfidence::JrsConfidence(uint64_t num_entries, int threshold,
                             int max_count)
    : table_(num_entries, 0), mask_(num_entries - 1),
      threshold_(threshold), maxCount_(max_count)
{
    SSMT_ASSERT((num_entries & mask_) == 0,
                "JRS table size must be a power of two");
    SSMT_ASSERT(threshold <= max_count,
                "JRS threshold above saturation");
}

uint64_t
JrsConfidence::index(uint64_t pc, uint64_t history) const
{
    return (pc ^ (history * 0x9e3779b97f4a7c15ull >> 19)) & mask_;
}

bool
JrsConfidence::highConfidence(uint64_t pc, uint64_t history) const
{
    return table_[index(pc, history)] >= threshold_;
}

int
JrsConfidence::count(uint64_t pc, uint64_t history) const
{
    return table_[index(pc, history)];
}

void
JrsConfidence::update(uint64_t pc, uint64_t history, bool correct)
{
    updates_++;
    uint8_t &counter = table_[index(pc, history)];
    if (!correct)
        counter = 0;
    else if (counter < maxCount_)
        counter++;
}

} // namespace bpred
} // namespace ssmt
