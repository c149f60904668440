#include "core/path_cache.hh"

#include "sim/logging.hh"

namespace ssmt
{
namespace core
{

PathCache::PathCache(uint32_t num_entries, uint32_t assoc,
                     uint32_t training_interval, double threshold)
    : entries_(num_entries), tags_(num_entries, 0), assoc_(assoc),
      trainingInterval_(training_interval), threshold_(threshold)
{
    SSMT_ASSERT(num_entries % assoc == 0,
                "path cache entries must divide by associativity");
    numSets_ = num_entries / assoc;
    SSMT_ASSERT((numSets_ & (numSets_ - 1)) == 0,
                "path cache set count must be a power of two");
    SSMT_ASSERT(training_interval > 0, "training interval must be > 0");
}

template <typename Self>
auto
PathCache::findIn(Self &self, PathId id) -> decltype(self.find(id))
{
    uint32_t set = static_cast<uint32_t>(id) & (self.numSets_ - 1);
    size_t base_idx = static_cast<size_t>(set) * self.assoc_;
    // Probe the packed tag line; touch the full entries only on a
    // candidate hit (and re-verify there, so tags need no separate
    // valid bit).
    const PathId *tags = &self.tags_[base_idx];
    auto *base = &self.entries_[base_idx];
    for (uint32_t way = 0; way < self.assoc_; way++)
        if (tags[way] == id && base[way].valid && base[way].id == id)
            return &base[way];
    return nullptr;
}

PathCache::Entry *
PathCache::find(PathId id)
{
    return findIn(*this, id);
}

const PathCache::Entry *
PathCache::find(PathId id) const
{
    return findIn(*this, id);
}

PathCache::Entry *
PathCache::allocate(PathId id)
{
    uint32_t set = static_cast<uint32_t>(id) & (numSets_ - 1);
    Entry *base = &entries_[static_cast<size_t>(set) * assoc_];

    // Prefer an invalid way; otherwise modified LRU that favors
    // keeping Difficult entries: victimize the LRU non-difficult
    // entry if one exists, else the overall LRU entry.
    Entry *victim = nullptr;
    Entry *lru_any = nullptr;
    Entry *lru_easy = nullptr;
    for (uint32_t way = 0; way < assoc_; way++) {
        Entry &entry = base[way];
        if (!entry.valid) {
            victim = &entry;
            break;
        }
        if (!lru_any || entry.lastUse < lru_any->lastUse)
            lru_any = &entry;
        if (!entry.difficult &&
            (!lru_easy || entry.lastUse < lru_easy->lastUse)) {
            lru_easy = &entry;
        }
    }
    if (!victim) {
        victim = lru_easy ? lru_easy : lru_any;
        evictions_++;
        if (victim->difficult)
            difficultEvictions_++;
        if (victim->promoted)
            evictedPromotions_.push_back(victim->id);
    }
    allocations_++;
    *victim = Entry{};
    victim->valid = true;
    victim->id = id;
    tags_[victim - entries_.data()] = id;
    return victim;
}

PathEvent
PathCache::update(PathId id, bool hw_mispredict)
{
    updates_++;
    Entry *entry = find(id);
    if (!entry) {
        // Allocate only on a hardware misprediction (Section 4.1).
        if (!hw_mispredict) {
            allocationsSkipped_++;
            return PathEvent::None;
        }
        entry = allocate(id);
    }

    entry->lastUse = ++stamp_;
    entry->occurrences++;
    if (hw_mispredict)
        entry->mispredicts++;

    PathEvent event = PathEvent::None;
    if (entry->occurrences >= trainingInterval_) {
        double rate = static_cast<double>(entry->mispredicts) /
                      static_cast<double>(entry->occurrences);
        bool difficult = rate > threshold_;
        entry->occurrences = 0;
        entry->mispredicts = 0;
        entry->difficult = difficult;
        if (difficult && !entry->promoted)
            event = PathEvent::RequestPromote;
        else if (!difficult && entry->promoted)
            event = PathEvent::Demote;
    } else if (entry->difficult && !entry->promoted) {
        // Re-request each update until a builder accepts (the paper's
        // promotion logic examines the bits on every entry update).
        event = PathEvent::RequestPromote;
    }
    return event;
}

bool
PathCache::isDifficult(PathId id) const
{
    const Entry *entry = find(id);
    return entry && entry->difficult;
}

bool
PathCache::isPromoted(PathId id) const
{
    const Entry *entry = find(id);
    return entry && entry->promoted;
}

void
PathCache::setPromoted(PathId id, bool promoted)
{
    Entry *entry = find(id);
    if (entry)
        entry->promoted = promoted;
}

uint32_t
PathCache::difficultCount() const
{
    uint32_t count = 0;
    for (const Entry &entry : entries_)
        if (entry.valid && entry.difficult)
            count++;
    return count;
}

uint32_t
PathCache::occupancy() const
{
    uint32_t count = 0;
    for (const Entry &entry : entries_)
        if (entry.valid)
            count++;
    return count;
}

void
PathCache::drainEvictedPromotions(std::vector<PathId> &out)
{
    out.clear();
    out.insert(out.end(), evictedPromotions_.begin(),
               evictedPromotions_.end());
    evictedPromotions_.clear();
}

bool
PathCache::injectCorrupt(uint64_t rnd)
{
    uint32_t live = occupancy();
    if (live == 0)
        return false;
    uint32_t victim = static_cast<uint32_t>(rnd % live);
    for (Entry &entry : entries_) {
        if (!entry.valid)
            continue;
        if (victim-- == 0) {
            entry.difficult = !entry.difficult;
            entry.mispredicts = static_cast<uint32_t>(
                (rnd >> 32) % (entry.occurrences + 1));
            return true;
        }
    }
    return false;
}

bool
PathCache::injectEvict(uint64_t rnd)
{
    uint32_t live = occupancy();
    if (live == 0)
        return false;
    uint32_t victim = static_cast<uint32_t>(rnd % live);
    for (Entry &entry : entries_) {
        if (!entry.valid)
            continue;
        if (victim-- == 0) {
            evictions_++;
            if (entry.difficult)
                difficultEvictions_++;
            if (entry.promoted)
                evictedPromotions_.push_back(entry.id);
            entry = Entry{};
            tags_[&entry - entries_.data()] = 0;
            return true;
        }
    }
    return false;
}

} // namespace core
} // namespace ssmt
