#include "bpred/frontend_predictor.hh"

#include "sim/logging.hh"

namespace ssmt
{
namespace bpred
{

FrontEndPredictor::FrontEndPredictor(uint64_t component_entries,
                                     uint64_t selector_entries,
                                     uint64_t target_cache_entries,
                                     uint32_t ras_depth)
    : FrontEndPredictor(
          DirectionConfig{PredictorKind::Hybrid, component_entries,
                          selector_entries, 0},
          target_cache_entries, ras_depth)
{
}

FrontEndPredictor::FrontEndPredictor(const DirectionConfig &direction,
                                     uint64_t target_cache_entries,
                                     uint32_t ras_depth)
    : dir_(makeDirectionPredictor(direction)),
      targetCache_(target_cache_entries), ras_(ras_depth)
{
}

} // namespace bpred
} // namespace ssmt
