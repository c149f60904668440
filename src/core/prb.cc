#include "core/prb.hh"

#include "sim/snapshot.hh"

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

void
PrbEntry::save(sim::SnapshotWriter &w) const
{
    w.u64("seq", seq);
    w.u64("pc", pc);
    w.beginObject("inst");
    inst.save(w);
    w.endObject();
    w.u64("value", value);
    w.u64("memAddr", memAddr);
    w.boolean("taken", taken);
    w.u64("target", target);
    w.u64("srcSeq0", srcSeq[0]);
    w.u64("srcSeq1", srcSeq[1]);
    w.boolean("vpConfident", vpConfident);
    w.boolean("apConfident", apConfident);
}

void
PrbEntry::restore(sim::SnapshotReader &r)
{
    seq = r.u64("seq");
    pc = r.u64("pc");
    r.enter("inst");
    inst.restore(r);
    r.leave();
    value = r.u64("value");
    memAddr = r.u64("memAddr");
    taken = r.boolean("taken");
    target = r.u64("target");
    srcSeq[0] = r.u64("srcSeq0");
    srcSeq[1] = r.u64("srcSeq1");
    vpConfident = r.boolean("vpConfident");
    apConfident = r.boolean("apConfident");
}

void
Prb::save(sim::SnapshotWriter &w) const
{
    // The full ring verbatim (stale slots included) so the restored
    // buffer is indistinguishable from the original, not merely
    // observably equivalent.
    w.beginArray("ring");
    for (const PrbEntry &entry : ring_) {
        w.beginObject();
        entry.save(w);
        w.endObject();
    }
    w.endArray();
    w.u64("head", head_);
    w.u64("size", size_);
}

void
Prb::restore(sim::SnapshotReader &r)
{
    const size_t n = r.enterArray("ring");
    r.requireSize("ring", n, ring_.size());
    for (size_t i = 0; i < n; i++) {
        r.enterItem(i);
        ring_[i].restore(r);
        r.leave();
    }
    r.leave();
    // pushSlot writes ring_[head_] unchecked and wraps only at the
    // capacity exactly; size_ bounds every walk of the ring.
    const uint64_t head = r.u64("head");
    if (head >= ring_.size())
        r.fail("prb head " + std::to_string(head) + " is past its " +
               std::to_string(ring_.size()) + " slots");
    const uint64_t size = r.u64("size");
    if (size > ring_.size())
        r.fail("prb size " + std::to_string(size) + " exceeds its " +
               std::to_string(ring_.size()) + " slots");
    head_ = static_cast<uint32_t>(head);
    size_ = static_cast<uint32_t>(size);
}

static_assert(sim::SnapshotterLike<PrbEntry>);
static_assert(sim::SnapshotterLike<Prb>);
SSMT_SNAPSHOT_PIN_LAYOUT(PrbEntry, 11 * 8);

} // namespace core
} // namespace ssmt

