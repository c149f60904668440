/**
 * @file
 * Tests for the Prediction Cache (paper Section 4.3.3).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "core/prediction_cache.hh"

namespace
{

using namespace ssmt::core;

TEST(PredictionCacheTest, WriteThenLookup)
{
    PredictionCache pc(8);
    pc.write(0xAB, 100, true, 55, 9);
    const PredEntry *entry = pc.lookup(0xAB, 100);
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(entry->taken);
    EXPECT_EQ(entry->target, 55u);
    EXPECT_EQ(entry->writeCycle, 9u);
}

TEST(PredictionCacheTest, KeyIsPathIdAndSeqNum)
{
    PredictionCache pc(8);
    pc.write(0xAB, 100, true, 55, 9);
    EXPECT_EQ(pc.lookup(0xAB, 101), nullptr);
    EXPECT_EQ(pc.lookup(0xAC, 100), nullptr);
}

TEST(PredictionCacheTest, OverwriteSameKey)
{
    PredictionCache pc(8);
    pc.write(1, 10, true, 5, 1);
    pc.write(1, 10, false, 6, 2);
    const PredEntry *entry = pc.lookup(1, 10);
    ASSERT_NE(entry, nullptr);
    EXPECT_FALSE(entry->taken);
    EXPECT_EQ(pc.overwrites(), 1u);
    EXPECT_EQ(pc.occupancy(), 1u);
}

TEST(PredictionCacheTest, EvictsOldestSeqWhenFull)
{
    PredictionCache pc(2);
    pc.write(1, 10, true, 0, 0);
    pc.write(1, 20, true, 0, 0);
    pc.write(1, 30, true, 0, 0);    // evicts seq 10
    EXPECT_EQ(pc.lookup(1, 10), nullptr);
    EXPECT_NE(pc.lookup(1, 20), nullptr);
    EXPECT_NE(pc.lookup(1, 30), nullptr);
    EXPECT_EQ(pc.evictions(), 1u);
}

TEST(PredictionCacheTest, ReclaimStaleCountsUnconsumed)
{
    PredictionCache pc(8);
    pc.write(1, 10, true, 0, 0);
    pc.write(1, 20, true, 0, 0);
    pc.markConsumed(1, 10);
    pc.reclaimOlderThan(25);
    // Both reclaimed; only seq 20 was never consumed.
    EXPECT_EQ(pc.reclaimedUnconsumed(), 1u);
    EXPECT_EQ(pc.occupancy(), 0u);
}

TEST(PredictionCacheTest, ReclaimSparesYoungEntries)
{
    PredictionCache pc(8);
    pc.write(1, 10, true, 0, 0);
    pc.write(1, 50, true, 0, 0);
    pc.reclaimOlderThan(30);
    EXPECT_EQ(pc.lookup(1, 10), nullptr);
    EXPECT_NE(pc.lookup(1, 50), nullptr);
}

TEST(PredictionCacheTest, HitAndLookupStats)
{
    PredictionCache pc(8);
    pc.write(1, 10, true, 0, 0);
    pc.lookup(1, 10);
    pc.lookup(1, 99);
    EXPECT_EQ(pc.lookups(), 2u);
    EXPECT_EQ(pc.lookupHits(), 1u);
    EXPECT_EQ(pc.writes(), 1u);
}

TEST(PredictionCacheTest, SetGeometryCoversCapacity)
{
    // Sets * ways must equal the capacity; odd capacities degenerate
    // to one fully-associative set (the historical organization).
    for (uint32_t capacity : {1u, 2u, 5u, 8u, 16u, 24u, 128u, 256u}) {
        PredictionCache pc(capacity);
        EXPECT_EQ(pc.numSets() * pc.assoc(), capacity) << capacity;
        EXPECT_EQ(pc.numSets() & (pc.numSets() - 1), 0u)
            << "set count must be a power of two";
        if (capacity >= 8) {
            EXPECT_GE(pc.assoc(), 4u) << capacity;
        }
    }
    EXPECT_EQ(PredictionCache(5).numSets(), 1u);
    EXPECT_EQ(PredictionCache(128).numSets(), 32u);
}

/**
 * Brute-force reference model of the set-indexed organization: each
 * set is a plain array of ways; a write picks (in order) the key
 * match, the first invalid way, or the lowest-indexed way with the
 * oldest Seq_Num.
 */
class ReferenceModel
{
  public:
    struct Way
    {
        bool valid = false;
        PathId pathId = 0;
        uint64_t seqNum = 0;
        bool taken = false;
        uint64_t target = 0;
        bool consumed = false;
    };

    ReferenceModel(uint32_t num_sets, uint32_t assoc)
        : sets_(num_sets, std::vector<Way>(assoc))
    {
    }

    /** @return true if the write evicted a valid entry. */
    bool
    write(uint32_t set, PathId id, uint64_t seq, bool taken,
          uint64_t target)
    {
        auto &ways = sets_[set];
        Way *slot = nullptr;
        for (Way &way : ways) {
            if (way.valid && way.pathId == id && way.seqNum == seq) {
                slot = &way;
                break;
            }
        }
        bool evicted = false;
        if (!slot) {
            for (Way &way : ways) {
                if (!way.valid) {
                    slot = &way;
                    break;
                }
            }
        }
        if (!slot) {
            slot = &ways[0];
            for (Way &way : ways)
                if (way.seqNum < slot->seqNum)
                    slot = &way;
            evicted = true;
        }
        *slot = Way{true, id, seq, taken, target, false};
        return evicted;
    }

    const Way *
    lookup(uint32_t set, PathId id, uint64_t seq) const
    {
        for (const Way &way : sets_[set])
            if (way.valid && way.pathId == id && way.seqNum == seq)
                return &way;
        return nullptr;
    }

    void
    markConsumed(uint32_t set, PathId id, uint64_t seq)
    {
        for (Way &way : sets_[set])
            if (way.valid && way.pathId == id && way.seqNum == seq)
                way.consumed = true;
    }

    /** @return number of unconsumed entries reclaimed. */
    uint64_t
    reclaimOlderThan(uint64_t seq)
    {
        uint64_t unconsumed = 0;
        for (auto &ways : sets_) {
            for (Way &way : ways) {
                if (way.valid && way.seqNum < seq) {
                    if (!way.consumed)
                        unconsumed++;
                    way.valid = false;
                }
            }
        }
        return unconsumed;
    }

    uint32_t
    occupancy() const
    {
        uint32_t n = 0;
        for (const auto &ways : sets_)
            for (const Way &way : ways)
                if (way.valid)
                    n++;
        return n;
    }

  private:
    std::vector<std::vector<Way>> sets_;
};

TEST(PredictionCacheTest, RandomSweepMatchesReferenceModel)
{
    // Capacity/eviction sweep: across geometries from a 2-entry
    // degenerate cache to the paper's 128-entry point, a randomized
    // write/lookup/consume/reclaim stream must agree with the
    // brute-force model on every lookup outcome, every replacement
    // victim (checked by full-content comparison), and every counter.
    for (uint32_t capacity : {2u, 5u, 8u, 16u, 24u, 128u}) {
        SCOPED_TRACE("capacity " + std::to_string(capacity));
        PredictionCache pc(capacity);
        ReferenceModel model(pc.numSets(), pc.assoc());
        std::mt19937_64 rng(0xC0FFEE + capacity);

        uint64_t front = 0;                     // front-end position
        uint64_t evictions = 0, overwrites = 0, unconsumed = 0;
        std::vector<std::pair<PathId, uint64_t>> live;

        for (int op = 0; op < 4000; op++) {
            PathId id = 1 + rng() % 6;
            uint64_t seq = front + rng() % (2 * capacity + 8);
            uint32_t set = pc.setIndex(id, seq);
            switch (rng() % 8) {
            case 0:
            case 1:
            case 2: {                           // write
                bool taken = rng() & 1;
                uint64_t target = rng() % 1024;
                bool existed = model.lookup(set, id, seq) != nullptr;
                bool evicted =
                    model.write(set, id, seq, taken, target);
                if (existed)
                    overwrites++;
                else if (evicted)
                    evictions++;
                pc.write(id, seq, taken, target, op);
                live.push_back({id, seq});
                break;
            }
            case 3:
            case 4:
            case 5: {                           // lookup a seen key
                if (live.empty())
                    break;
                auto key = live[rng() % live.size()];
                uint32_t kset = pc.setIndex(key.first, key.second);
                const PredEntry *got =
                    pc.lookup(key.first, key.second);
                const ReferenceModel::Way *want =
                    model.lookup(kset, key.first, key.second);
                ASSERT_EQ(got != nullptr, want != nullptr)
                    << "hit/miss diverges at op " << op;
                if (got) {
                    EXPECT_EQ(got->taken, want->taken);
                    EXPECT_EQ(got->target, want->target);
                }
                break;
            }
            case 6: {                           // consume a seen key
                if (live.empty())
                    break;
                auto key = live[rng() % live.size()];
                uint32_t kset = pc.setIndex(key.first, key.second);
                pc.markConsumed(key.first, key.second);
                model.markConsumed(kset, key.first, key.second);
                break;
            }
            case 7: {                           // advance + reclaim
                front += 1 + rng() % capacity;
                unconsumed += model.reclaimOlderThan(front);
                pc.reclaimOlderThan(front);
                break;
            }
            }
            ASSERT_EQ(pc.occupancy(), model.occupancy())
                << "occupancy diverges at op " << op;
        }

        // Counter parity: identical victims imply identical totals.
        EXPECT_EQ(pc.evictions(), evictions);
        EXPECT_EQ(pc.overwrites(), overwrites);
        EXPECT_EQ(pc.reclaimedUnconsumed(), unconsumed);

        // Final content parity for every key ever written.
        std::sort(live.begin(), live.end());
        live.erase(std::unique(live.begin(), live.end()), live.end());
        for (const auto &key : live) {
            uint32_t kset = pc.setIndex(key.first, key.second);
            const PredEntry *got = pc.lookup(key.first, key.second);
            const ReferenceModel::Way *want =
                model.lookup(kset, key.first, key.second);
            ASSERT_EQ(got != nullptr, want != nullptr);
            if (got) {
                EXPECT_EQ(got->taken, want->taken);
                EXPECT_EQ(got->target, want->target);
            }
        }
    }
}

/**
 * Collect @p count distinct (PathId, SeqNum) keys that all hash into
 * @p set of @p pc. At most one key per SeqNum, scanning SeqNums
 * upward from @p min_seq, so the returned keys have strictly
 * increasing SeqNums — the within-set "oldest" is always unambiguous.
 */
std::vector<std::pair<PathId, uint64_t>>
aliasingKeys(const PredictionCache &pc, uint32_t set, size_t count,
             uint64_t min_seq)
{
    std::vector<std::pair<PathId, uint64_t>> keys;
    for (uint64_t seq = min_seq; keys.size() < count; seq++) {
        for (PathId id = 1; id <= 256; id++) {
            if (pc.setIndex(id, seq) == set) {
                keys.push_back({id, seq});
                break;
            }
        }
    }
    return keys;
}

TEST(PredictionCacheTest, AliasingKeysReplaceOldestSeqWithinSet)
{
    // The paper's 128-entry point: 32 sets x 4 ways. Keys that alias
    // into one set must contend only with each other, and the victim
    // of a full-set write must be the way holding the oldest SeqNum.
    PredictionCache pc(128);
    ASSERT_GE(pc.numSets(), 2u);
    const uint32_t set = pc.setIndex(1, 0);
    auto keys = aliasingKeys(pc, set, pc.assoc() + 2, 0);
    for (const auto &key : keys)
        ASSERT_EQ(pc.setIndex(key.first, key.second), set);

    // A control key in some other set must survive the contention.
    std::pair<PathId, uint64_t> control{0, 0};
    for (uint64_t seq = 0; control.first == 0; seq++) {
        for (PathId id = 1; id <= 256; id++) {
            if (pc.setIndex(id, seq) != set) {
                control = {id, seq};
                break;
            }
        }
    }
    pc.write(control.first, control.second, true, 777, 0);

    // Fill the set: no evictions yet, every aliasing key resident.
    for (uint32_t i = 0; i < pc.assoc(); i++)
        pc.write(keys[i].first, keys[i].second, true, i, i);
    EXPECT_EQ(pc.evictions(), 0u);
    EXPECT_EQ(pc.occupancy(), pc.assoc() + 1);
    for (uint32_t i = 0; i < pc.assoc(); i++)
        EXPECT_NE(pc.lookup(keys[i].first, keys[i].second), nullptr);

    // Each overflow write must victimize the oldest SeqNum in the
    // set — keys[] is seq-sorted, so eviction proceeds in order.
    for (size_t extra = pc.assoc(); extra < keys.size(); extra++) {
        pc.write(keys[extra].first, keys[extra].second, false, extra,
                 extra);
        EXPECT_EQ(pc.evictions(), extra - pc.assoc() + 1);
        size_t oldest_evicted = extra - pc.assoc();
        for (size_t i = 0; i <= oldest_evicted; i++) {
            EXPECT_EQ(pc.lookup(keys[i].first, keys[i].second),
                      nullptr)
                << "key " << i << " should have been evicted";
        }
        for (size_t i = oldest_evicted + 1; i <= extra; i++) {
            EXPECT_NE(pc.lookup(keys[i].first, keys[i].second),
                      nullptr)
                << "key " << i << " should be resident";
        }
    }

    // Aliasing pressure never touches the other sets.
    const PredEntry *kept = pc.lookup(control.first, control.second);
    ASSERT_NE(kept, nullptr);
    EXPECT_EQ(kept->target, 777u);
}

TEST(PredictionCacheTest, AliasingSweepMatchesReferenceModel)
{
    // Same reference-model protocol as the random sweep above, but
    // every key is drawn from a precomputed pool that aliases into a
    // single set: maximal replacement contention, zero help from the
    // other sets. Run on two geometries that actually have multiple
    // sets.
    for (uint32_t capacity : {16u, 128u}) {
        SCOPED_TRACE("capacity " + std::to_string(capacity));
        PredictionCache pc(capacity);
        ASSERT_GE(pc.numSets(), 2u);
        const uint32_t set = pc.setIndex(3, 1);
        auto pool = aliasingKeys(pc, set, 200, 0);
        ReferenceModel model(pc.numSets(), pc.assoc());
        std::mt19937_64 rng(0xA11A5 + capacity);

        size_t cursor = 0;                  // moving key-pool window
        uint64_t evictions = 0, overwrites = 0, unconsumed = 0;
        for (int op = 0; op < 3000; op++) {
            size_t lo = cursor > 12 ? cursor - 12 : 0;
            auto key = pool[lo + rng() % (cursor - lo + 1)];
            switch (rng() % 8) {
            case 0:
            case 1:
            case 2: {                       // write
                bool taken = rng() & 1;
                uint64_t target = rng() % 1024;
                bool existed =
                    model.lookup(set, key.first, key.second) !=
                    nullptr;
                bool evicted = model.write(set, key.first,
                                           key.second, taken, target);
                if (existed)
                    overwrites++;
                else if (evicted)
                    evictions++;
                pc.write(key.first, key.second, taken, target, op);
                break;
            }
            case 3:
            case 4:
            case 5: {                       // lookup
                const PredEntry *got =
                    pc.lookup(key.first, key.second);
                const ReferenceModel::Way *want =
                    model.lookup(set, key.first, key.second);
                ASSERT_EQ(got != nullptr, want != nullptr)
                    << "hit/miss diverges at op " << op;
                if (got) {
                    EXPECT_EQ(got->taken, want->taken);
                    EXPECT_EQ(got->target, want->target);
                }
                break;
            }
            case 6: {                       // consume
                pc.markConsumed(key.first, key.second);
                model.markConsumed(set, key.first, key.second);
                break;
            }
            case 7: {                       // advance + reclaim
                if (cursor + 4 < pool.size())
                    cursor += 1 + rng() % 3;
                uint64_t front = pool[lo].second;
                unconsumed += model.reclaimOlderThan(front);
                pc.reclaimOlderThan(front);
                break;
            }
            }
            ASSERT_EQ(pc.occupancy(), model.occupancy())
                << "occupancy diverges at op " << op;
        }
        EXPECT_EQ(pc.evictions(), evictions);
        EXPECT_EQ(pc.overwrites(), overwrites);
        EXPECT_EQ(pc.reclaimedUnconsumed(), unconsumed);
    }
}

TEST(PredictionCacheTest, SmallCacheSustainsStream)
{
    // The paper's point: 128 entries suffice because stale entries
    // reclaim quickly. Simulate a moving front-end.
    PredictionCache pc(16);
    for (uint64_t seq = 0; seq < 1000; seq++) {
        pc.write(7, seq + 20, seq % 2 == 0, 0, seq);
        const PredEntry *entry = pc.lookup(7, seq + 20);
        ASSERT_NE(entry, nullptr);
        pc.markConsumed(7, seq + 20);
        pc.reclaimOlderThan(seq);
    }
    EXPECT_EQ(pc.reclaimedUnconsumed(), 0u);
    EXPECT_LE(pc.occupancy(), 16u);
}

} // namespace
