#include "vpred/value_predictor.hh"

#include "sim/logging.hh"

namespace ssmt
{
namespace vpred
{

ValuePredictor::ValuePredictor(uint64_t num_entries, int confidence_max,
                               int confidence_thresh)
    : table_(num_entries), mask_(num_entries - 1),
      confMax_(confidence_max), confThresh_(confidence_thresh)
{
    SSMT_ASSERT((num_entries & mask_) == 0,
                "value predictor size must be a power of two");
    SSMT_ASSERT(confidence_thresh <= confidence_max,
                "confidence threshold above saturation point");
}

int
ValuePredictor::confidence(uint64_t pc) const
{
    const Entry *entry = find(pc);
    return entry ? entry->conf : 0;
}

int64_t
ValuePredictor::stride(uint64_t pc) const
{
    const Entry *entry = find(pc);
    return entry ? entry->stride : 0;
}

} // namespace vpred
} // namespace ssmt

