#include "bpred/hybrid.hh"

#include "sim/logging.hh"

namespace ssmt
{
namespace bpred
{

Hybrid::Hybrid(uint64_t component_entries, uint64_t selector_entries,
               uint32_t history_bits)
    : gshare_(component_entries, static_cast<int>(history_bits)),
      pas_(4096, 12, component_entries),
      selector_(selector_entries), selectorMask_(selector_entries - 1)
{
    SSMT_ASSERT((selector_entries & selectorMask_) == 0,
                "selector size must be a power of two");
}

} // namespace bpred
} // namespace ssmt

