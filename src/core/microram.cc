#include "core/microram.hh"

#include "sim/snapshot.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ssmt
{
namespace core
{

const std::vector<SpawnTarget> MicroRam::kEmpty;

MicroRam::MicroRam(uint32_t capacity) : capacity_(capacity)
{
    SSMT_ASSERT(capacity > 0, "MicroRAM capacity must be positive");
}

void
MicroRam::setProgramSize(size_t num_pcs)
{
    spawnAtPc_.assign(num_pcs, 0);
    spawnIndex_.forEach(
        [&](uint64_t pc, const std::vector<SpawnTarget> &ids) {
            if (pc < spawnAtPc_.size())
                spawnAtPc_[pc] =
                    static_cast<uint16_t>(ids.size());
        });
}

void
MicroRam::indexSpawn(uint64_t pc, PathId id,
                     const std::shared_ptr<const MicroThread> &thread)
{
    SpawnTarget target;
    target.id = id;
    target.thread = thread;
    target.prefixLen = static_cast<uint32_t>(thread->prefix.size());
    target.lastPrefixAddr =
        target.prefixLen > 0
            ? thread->prefix.back().pc * isa::kInstBytes
            : 0;
    spawnIndex_[pc].push_back(target);
    if (pc < spawnAtPc_.size())
        spawnAtPc_[pc]++;
}

bool
MicroRam::insert(MicroThread thread)
{
    auto *existing = routines_.find(thread.pathId);
    if (existing) {
        // Rebuild: replace in place (Section 4.2.4). Instances of
        // the old routine keep their shared handle until they drain.
        unindex(**existing);
        *existing =
            std::make_shared<const MicroThread>(std::move(thread));
        indexSpawn((*existing)->spawnPc, (*existing)->pathId,
                   *existing);
        insertions_++;
        return true;
    }
    if (routines_.size() >= capacity_) {
        rejectedFull_++;
        return false;
    }
    PathId id = thread.pathId;
    auto &stored = routines_[id];
    stored = std::make_shared<const MicroThread>(std::move(thread));
    indexSpawn(stored->spawnPc, id, stored);
    insertions_++;
    return true;
}

std::shared_ptr<const MicroThread>
MicroRam::findShared(PathId id) const
{
    const std::shared_ptr<const MicroThread> *thread =
        routines_.find(id);
    return thread ? *thread : nullptr;
}

void
MicroRam::remove(PathId id)
{
    const std::shared_ptr<const MicroThread> *thread =
        routines_.find(id);
    if (!thread)
        return;
    unindex(**thread);
    routines_.erase(id);
    removals_++;
}

std::vector<PathId>
MicroRam::ids() const
{
    std::vector<PathId> out;
    out.reserve(routines_.size());
    routines_.forEach(
        [&](uint64_t id, const std::shared_ptr<const MicroThread> &) {
            out.push_back(id);
        });
    return out;
}

void
MicroRam::unindex(const MicroThread &thread)
{
    std::vector<SpawnTarget> *vec = spawnIndex_.find(thread.spawnPc);
    if (!vec)
        return;
    size_t before = vec->size();
    vec->erase(std::remove_if(vec->begin(), vec->end(),
                              [&](const SpawnTarget &t) {
                                  return t.id == thread.pathId;
                              }),
               vec->end());
    if (thread.spawnPc < spawnAtPc_.size()) {
        spawnAtPc_[thread.spawnPc] -=
            static_cast<uint16_t>(before - vec->size());
    }
    if (vec->empty())
        spawnIndex_.erase(thread.spawnPc);
}

void
MicroRam::save(sim::SnapshotWriter &w) const
{
    // Routines sorted by path id for canonical bytes.
    std::vector<PathId> ids_sorted = ids();
    std::sort(ids_sorted.begin(), ids_sorted.end());
    w.beginArray("routines");
    for (PathId id : ids_sorted) {
        w.beginObject();
        (*routines_.find(id))->save(w);
        w.endObject();
    }
    w.endArray();
    // The spawn index keyed by pc (sorted), each pc's id vector in
    // its *verbatim* order: insert() moves a rebuilt routine to the
    // back of its vector and routinesAt() drives spawn-attempt order,
    // so this order is architecturally visible.
    std::vector<uint64_t> pcs;
    pcs.reserve(spawnIndex_.size());
    spawnIndex_.forEach(
        [&](uint64_t pc, const std::vector<SpawnTarget> &) {
            pcs.push_back(pc);
        });
    std::sort(pcs.begin(), pcs.end());
    w.beginArray("spawnIndex");
    for (uint64_t pc : pcs) {
        w.beginObject();
        w.u64("pc", pc);
        std::vector<uint64_t> ids_at;
        for (const SpawnTarget &t : *spawnIndex_.find(pc))
            ids_at.push_back(t.id);
        w.u64Array("ids", ids_at);
        w.endObject();
    }
    w.endArray();
    w.u64("insertions", insertions_);
    w.u64("rejectedFull", rejectedFull_);
    w.u64("removals", removals_);
}

void
MicroRam::restore(sim::SnapshotReader &r)
{
    routines_.clear();
    spawnIndex_.clear();
    size_t n = r.enterArray("routines");
    for (size_t i = 0; i < n; i++) {
        r.enterItem(i);
        auto thread = std::make_shared<MicroThread>();
        thread->restore(r);
        const PathId id = thread->pathId;
        routines_.insert(id, std::move(thread));
        r.leave();
    }
    r.leave();
    n = r.enterArray("spawnIndex");
    for (size_t i = 0; i < n; i++) {
        r.enterItem(i);
        uint64_t pc = r.u64("pc");
        std::vector<SpawnTarget> targets;
        for (uint64_t id : r.u64Array("ids")) {
            // Re-bind the routine handle (and the denormalized
            // prefix head) to the restored store.
            const std::shared_ptr<const MicroThread> *thread =
                routines_.find(id);
            SSMT_ASSERT(thread,
                        "spawn index references a missing routine");
            SpawnTarget target;
            target.id = id;
            target.thread = *thread;
            target.prefixLen = static_cast<uint32_t>(
                (*thread)->prefix.size());
            target.lastPrefixAddr =
                target.prefixLen > 0
                    ? (*thread)->prefix.back().pc * isa::kInstBytes
                    : 0;
            targets.push_back(target);
        }
        spawnIndex_.insert(pc, std::move(targets));
        r.leave();
    }
    r.leave();
    // Rebuild the dense fetch filter over the restored index.
    setProgramSize(spawnAtPc_.size());
    insertions_ = r.u64("insertions");
    rejectedFull_ = r.u64("rejectedFull");
    removals_ = r.u64("removals");
}

static_assert(sim::SnapshotterLike<MicroRam>);

} // namespace core
} // namespace ssmt

