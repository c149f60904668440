#include "core/microram.hh"

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
    SSMT_ASSERT(routines_.empty(),
                "size the spawn filter before the first insert");
    spawnAtPc_.assign(num_pcs, 0);
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

} // namespace core
} // namespace ssmt

