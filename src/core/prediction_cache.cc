#include "core/prediction_cache.hh"

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

} // namespace core
} // namespace ssmt

