#include "core/path_tracker.hh"

#include "sim/snapshot.hh"

#include "sim/logging.hh"

namespace ssmt
{
namespace core
{

PathTracker::PathTracker(int depth) : ring_(depth, 0), depth_(depth)
{
    SSMT_ASSERT(depth > 0, "path tracker depth must be positive");
}

void
PathTracker::save(sim::SnapshotWriter &w) const
{
    w.u64Array("ring", ring_);
    w.u64("head", static_cast<uint64_t>(head_));
    w.u64("pushes", pushes_);
}

void
PathTracker::restore(sim::SnapshotReader &r)
{
    std::vector<uint64_t> ring = r.u64Array("ring");
    r.requireSize("ring", ring.size(), ring_.size());
    ring_ = std::move(ring);
    head_ = static_cast<int>(r.u64("head"));
    pushes_ = r.u64("pushes");
    cachedN_ = -1;
}

static_assert(sim::SnapshotterLike<PathTracker>);

} // namespace core
} // namespace ssmt

