#include "memory/hierarchy.hh"

#include "sim/snapshot.hh"

namespace ssmt
{
namespace memory
{

Hierarchy::Hierarchy(const HierarchyConfig &config)
    : config_(config),
      l1i_("l1i", config.l1iSize, config.l1iAssoc, config.lineBytes),
      l1d_("l1d", config.l1dSize, config.l1dAssoc, config.lineBytes),
      l2_("l2", config.l2Size, config.l2Assoc, config.lineBytes)
{
}

void
Hierarchy::save(sim::SnapshotWriter &w) const
{
    w.beginObject("l1i");
    l1i_.save(w);
    w.endObject();
    w.beginObject("l1d");
    l1d_.save(w);
    w.endObject();
    w.beginObject("l2");
    l2_.save(w);
    w.endObject();
}

void
Hierarchy::restore(sim::SnapshotReader &r)
{
    r.enter("l1i");
    l1i_.restore(r);
    r.leave();
    r.enter("l1d");
    l1d_.restore(r);
    r.leave();
    r.enter("l2");
    l2_.restore(r);
    r.leave();
}

static_assert(sim::SnapshotterLike<Hierarchy>);

} // namespace memory
} // namespace ssmt
