#include "core/prediction_cache.hh"

#include "sim/snapshot.hh"

#include "sim/logging.hh"

namespace ssmt
{
namespace core
{

namespace
{

/**
 * Choose the set count for @p num_entries: the largest power of two
 * that divides the capacity while keeping at least kTargetAssoc ways
 * per set. Odd capacities degenerate to a single fully-associative
 * set, which preserves the historical behavior exactly.
 */
constexpr uint32_t kTargetAssoc = 4;

uint32_t
chooseNumSets(uint32_t num_entries)
{
    uint32_t sets = 1;
    while (num_entries % (sets * 2) == 0 &&
           num_entries / (sets * 2) >= kTargetAssoc) {
        sets *= 2;
    }
    return sets;
}

} // namespace

PredictionCache::PredictionCache(uint32_t num_entries)
    : entries_(num_entries), numSets_(chooseNumSets(num_entries))
{
    SSMT_ASSERT(num_entries > 0, "prediction cache must have entries");
    assoc_ = num_entries / numSets_;
}

PredEntry *
PredictionCache::setBase(PathId id, uint64_t seq_num)
{
    return &entries_[static_cast<size_t>(setIndex(id, seq_num)) *
                     assoc_];
}

PredEntry *
PredictionCache::findSlot(PathId id, uint64_t seq_num)
{
    PredEntry *base = setBase(id, seq_num);
    for (uint32_t way = 0; way < assoc_; way++) {
        PredEntry &entry = base[way];
        if (entry.valid && entry.pathId == id &&
            entry.seqNum == seq_num)
            return &entry;
    }
    return nullptr;
}

void
PredictionCache::write(PathId id, uint64_t seq_num, bool taken,
                       uint64_t target, uint64_t cycle)
{
    writes_++;
    PredEntry *base = setBase(id, seq_num);
    PredEntry *slot = nullptr;
    // Single pass over the set: match, first invalid way, and the
    // oldest Seq_Num (the most likely to already be stale).
    PredEntry *invalid = nullptr;
    PredEntry *oldest = base;
    for (uint32_t way = 0; way < assoc_; way++) {
        PredEntry &entry = base[way];
        if (entry.valid && entry.pathId == id &&
            entry.seqNum == seq_num) {
            slot = &entry;
            break;
        }
        if (!entry.valid) {
            if (!invalid)
                invalid = &entry;
        } else if (entry.seqNum < oldest->seqNum || !oldest->valid) {
            oldest = &entry;
        }
    }
    if (slot) {
        overwrites_++;
    } else if (invalid) {
        slot = invalid;
    } else {
        slot = oldest;
        evictions_++;
    }
    if (!slot->valid)
        liveCount_++;
    if (seq_num < minLiveSeq_)
        minLiveSeq_ = seq_num;
    slot->valid = true;
    slot->pathId = id;
    slot->seqNum = seq_num;
    slot->taken = taken;
    slot->target = target;
    slot->writeCycle = cycle;
    slot->consumed = false;
}

void
PredictionCache::markConsumed(PathId id, uint64_t seq_num)
{
    PredEntry *slot = findSlot(id, seq_num);
    if (slot)
        slot->consumed = true;
}

void
PredictionCache::reclaimOlderThan(uint64_t seq_num)
{
    if (liveCount_ == 0 || seq_num <= minLiveSeq_)
        return;
    uint64_t new_min = ~0ull;
    for (PredEntry &entry : entries_) {
        if (!entry.valid)
            continue;
        if (entry.seqNum < seq_num) {
            if (!entry.consumed)
                reclaimedUnconsumed_++;
            entry.valid = false;
            liveCount_--;
        } else if (entry.seqNum < new_min) {
            new_min = entry.seqNum;
        }
    }
    minLiveSeq_ = new_min;
}

bool
PredictionCache::injectFlip(uint64_t rnd)
{
    uint32_t live = occupancy();
    if (live == 0)
        return false;
    uint32_t victim = static_cast<uint32_t>(rnd % live);
    for (PredEntry &entry : entries_) {
        if (!entry.valid)
            continue;
        if (victim-- == 0) {
            entry.taken = !entry.taken;
            entry.target ^= (rnd >> 8) | 1;
            return true;
        }
    }
    return false;
}

bool
PredictionCache::injectDrop(uint64_t rnd)
{
    uint32_t live = occupancy();
    if (live == 0)
        return false;
    uint32_t victim = static_cast<uint32_t>(rnd % live);
    for (PredEntry &entry : entries_) {
        if (!entry.valid)
            continue;
        if (victim-- == 0) {
            entry.valid = false;
            liveCount_--;
            return true;
        }
    }
    return false;
}

void
PredictionCache::save(sim::SnapshotWriter &w) const
{
    std::vector<uint64_t> valid, path_id, seq_num, taken, target,
        write_cycle, consumed;
    valid.reserve(entries_.size());
    for (const PredEntry &e : entries_) {
        valid.push_back(e.valid);
        path_id.push_back(e.pathId);
        seq_num.push_back(e.seqNum);
        taken.push_back(e.taken);
        target.push_back(e.target);
        write_cycle.push_back(e.writeCycle);
        consumed.push_back(e.consumed);
    }
    w.u64Array("valid", valid);
    w.u64Array("pathId", path_id);
    w.u64Array("seqNum", seq_num);
    w.u64Array("taken", taken);
    w.u64Array("target", target);
    w.u64Array("writeCycle", write_cycle);
    w.u64Array("consumed", consumed);
    w.u64("lookups", lookups_);
    w.u64("lookupHits", lookupHits_);
    w.u64("writes", writes_);
    w.u64("overwrites", overwrites_);
    w.u64("reclaimedUnconsumed", reclaimedUnconsumed_);
    w.u64("evictions", evictions_);
}

void
PredictionCache::restore(sim::SnapshotReader &r)
{
    std::vector<uint64_t> valid = r.u64Array("valid");
    std::vector<uint64_t> path_id = r.u64Array("pathId");
    std::vector<uint64_t> seq_num = r.u64Array("seqNum");
    std::vector<uint64_t> taken = r.u64Array("taken");
    std::vector<uint64_t> target = r.u64Array("target");
    std::vector<uint64_t> write_cycle = r.u64Array("writeCycle");
    std::vector<uint64_t> consumed = r.u64Array("consumed");
    r.requireSize("valid", valid.size(), entries_.size());
    r.requireSize("pathId", path_id.size(), entries_.size());
    r.requireSize("seqNum", seq_num.size(), entries_.size());
    r.requireSize("taken", taken.size(), entries_.size());
    r.requireSize("target", target.size(), entries_.size());
    r.requireSize("writeCycle", write_cycle.size(), entries_.size());
    r.requireSize("consumed", consumed.size(), entries_.size());
    liveCount_ = 0;
    minLiveSeq_ = ~0ull;
    for (size_t i = 0; i < entries_.size(); i++) {
        entries_[i].valid = valid[i] != 0;
        entries_[i].pathId = path_id[i];
        entries_[i].seqNum = seq_num[i];
        entries_[i].taken = taken[i] != 0;
        entries_[i].target = target[i];
        entries_[i].writeCycle = write_cycle[i];
        entries_[i].consumed = consumed[i] != 0;
        if (entries_[i].valid) {
            liveCount_++;
            if (entries_[i].seqNum < minLiveSeq_)
                minLiveSeq_ = entries_[i].seqNum;
        }
    }
    lookups_ = r.u64("lookups");
    lookupHits_ = r.u64("lookupHits");
    writes_ = r.u64("writes");
    overwrites_ = r.u64("overwrites");
    reclaimedUnconsumed_ = r.u64("reclaimedUnconsumed");
    evictions_ = r.u64("evictions");
}

static_assert(sim::SnapshotterLike<PredictionCache>);
SSMT_SNAPSHOT_PIN_LAYOUT(PredEntry, 7 * 8);

} // namespace core
} // namespace ssmt

