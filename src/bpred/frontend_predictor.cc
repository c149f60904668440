#include "bpred/frontend_predictor.hh"

#include "sim/snapshot.hh"

#include "sim/logging.hh"
#include "sim/sim_error.hh"

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

void
FrontEndPredictor::save(sim::SnapshotWriter &w) const
{
    w.str("directionKind", dir_->name());
    w.beginObject("direction");
    dir_->save(w);
    w.endObject();
    w.beginObject("targetCache");
    targetCache_.save(w);
    w.endObject();
    w.beginObject("ras");
    ras_.save(w);
    w.endObject();
    w.u64("condPredictions", condPredictions_);
    w.u64("condMispredicts", condMispredicts_);
    w.u64("indPredictions", indPredictions_);
    w.u64("indMispredicts", indMispredicts_);
}

void
FrontEndPredictor::restore(sim::SnapshotReader &r)
{
    // The machine envelope already rejects cross-backend restores
    // (predictor participates in configFingerprint); this guards
    // component-level restores driven by tests or tools.
    const std::string kind = r.str("directionKind");
    if (kind != dir_->name())
        throw sim::SimError(
            sim::ErrorCode::ConfigInvalid, "snapshot",
            "direction-predictor backend mismatch: snapshot has '" +
                kind + "', machine runs '" + dir_->name() + "'");
    r.enter("direction");
    dir_->restore(r);
    r.leave();
    r.enter("targetCache");
    targetCache_.restore(r);
    r.leave();
    r.enter("ras");
    ras_.restore(r);
    r.leave();
    condPredictions_ = r.u64("condPredictions");
    condMispredicts_ = r.u64("condMispredicts");
    indPredictions_ = r.u64("indPredictions");
    indMispredicts_ = r.u64("indMispredicts");
}

static_assert(sim::SnapshotterLike<FrontEndPredictor>);

} // namespace bpred
} // namespace ssmt
