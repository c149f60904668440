/**
 * @file
 * Tests for the Path Cache: difficulty training intervals,
 * promotion/demotion events, mispredict-only allocation, and the
 * difficulty-biased replacement policy (paper Section 4.1).
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/path_cache.hh"

namespace
{

using namespace ssmt::core;

PathEvent
updateN(PathCache &pc, PathId id, int n, bool miss)
{
    PathEvent last = PathEvent::None;
    for (int i = 0; i < n; i++)
        last = pc.update(id, miss);
    return last;
}

TEST(PathCacheTest, AllocatesOnlyOnMispredict)
{
    PathCache pc(64, 4, 32, 0.10);
    pc.update(111, false);
    EXPECT_EQ(pc.allocations(), 0u);
    EXPECT_EQ(pc.allocationsSkipped(), 1u);
    pc.update(111, true);
    EXPECT_EQ(pc.allocations(), 1u);
    // Once allocated, correct outcomes update the entry normally.
    pc.update(111, false);
    EXPECT_EQ(pc.allocationsSkipped(), 1u);
}

TEST(PathCacheTest, DifficultAfterBadTrainingInterval)
{
    PathCache pc(64, 4, 8, 0.10);
    // 8 occurrences, 2 misses: rate 0.25 > 0.10 -> difficult, and a
    // promotion request fires at the interval boundary.
    pc.update(5, true);
    pc.update(5, true);
    PathEvent ev = updateN(pc, 5, 6, false);
    EXPECT_EQ(ev, PathEvent::RequestPromote);
    EXPECT_TRUE(pc.isDifficult(5));
}

TEST(PathCacheTest, EasyIntervalDoesNotPromote)
{
    PathCache pc(64, 4, 8, 0.30);
    pc.update(5, true);     // allocates (counts as 1 miss)
    PathEvent ev = updateN(pc, 5, 7, false);
    // 1/8 = 0.125 < 0.30.
    EXPECT_EQ(ev, PathEvent::None);
    EXPECT_FALSE(pc.isDifficult(5));
}

TEST(PathCacheTest, CountersResetEachInterval)
{
    PathCache pc(64, 4, 4, 0.10);
    updateN(pc, 5, 4, true);            // very difficult interval
    EXPECT_TRUE(pc.isDifficult(5));
    pc.setPromoted(5, true);
    // A clean interval demotes.
    PathEvent ev = updateN(pc, 5, 4, false);
    EXPECT_EQ(ev, PathEvent::Demote);
    EXPECT_FALSE(pc.isDifficult(5));
}

TEST(PathCacheTest, ReRequestsUntilPromoted)
{
    PathCache pc(64, 4, 4, 0.10);
    updateN(pc, 5, 4, true);
    // Builder busy: Promoted not set; every subsequent update on the
    // difficult entry re-requests.
    EXPECT_EQ(pc.update(5, false), PathEvent::RequestPromote);
    EXPECT_EQ(pc.update(5, true), PathEvent::RequestPromote);
    pc.setPromoted(5, true);
    EXPECT_EQ(pc.update(5, false), PathEvent::None);
}

TEST(PathCacheTest, PromotedBitTracked)
{
    PathCache pc(64, 4, 4, 0.10);
    updateN(pc, 5, 4, true);
    EXPECT_FALSE(pc.isPromoted(5));
    pc.setPromoted(5, true);
    EXPECT_TRUE(pc.isPromoted(5));
    pc.setPromoted(5, false);
    EXPECT_FALSE(pc.isPromoted(5));
}

TEST(PathCacheTest, ReplacementFavorsKeepingDifficult)
{
    // 1 set x 2 ways.
    PathCache pc(2, 2, 4, 0.10);
    // Path A becomes difficult.
    updateN(pc, 0x10, 4, true);
    ASSERT_TRUE(pc.isDifficult(0x10));
    // Path B occupies the other way, stays easy but is more recent.
    pc.update(0x20, true);
    pc.update(0x20, false);
    // Path C allocates: must evict the easy B despite A being LRU.
    pc.update(0x30, true);
    EXPECT_TRUE(pc.isDifficult(0x10));
    EXPECT_EQ(pc.evictions(), 1u);
    EXPECT_EQ(pc.difficultEvictions(), 0u);
}

TEST(PathCacheTest, AllDifficultSetFallsBackToLru)
{
    PathCache pc(2, 2, 4, 0.10);
    updateN(pc, 0x10, 4, true);
    updateN(pc, 0x20, 4, true);
    ASSERT_TRUE(pc.isDifficult(0x10));
    ASSERT_TRUE(pc.isDifficult(0x20));
    pc.update(0x30, true);      // must evict LRU difficult (0x10)
    EXPECT_EQ(pc.difficultEvictions(), 1u);
    EXPECT_FALSE(pc.isDifficult(0x10));
    EXPECT_TRUE(pc.isDifficult(0x20));
}

TEST(PathCacheTest, EvictedPromotionsSurfaced)
{
    PathCache pc(2, 2, 4, 0.10);
    updateN(pc, 0x10, 4, true);
    updateN(pc, 0x20, 4, true);
    pc.setPromoted(0x10, true);
    pc.setPromoted(0x20, true);
    pc.update(0x30, true);      // evicts promoted 0x10
    ASSERT_TRUE(pc.hasEvictedPromotions());
    std::vector<PathId> evicted{0x99};  // cleared first
    pc.drainEvictedPromotions(evicted);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], 0x10u);
    // The list drains.
    EXPECT_FALSE(pc.hasEvictedPromotions());
    pc.drainEvictedPromotions(evicted);
    EXPECT_TRUE(evicted.empty());
}

TEST(PathCacheTest, DifficultCountReflectsState)
{
    PathCache pc(64, 4, 4, 0.10);
    EXPECT_EQ(pc.difficultCount(), 0u);
    updateN(pc, 1, 4, true);
    updateN(pc, 2, 4, true);
    EXPECT_EQ(pc.difficultCount(), 2u);
}

TEST(PathCacheTest, ThresholdBoundaryIsStrict)
{
    // Difficulty requires rate strictly greater than T.
    PathCache pc(64, 4, 10, 0.10);
    pc.update(5, true);                 // 1 miss
    updateN(pc, 5, 9, false);           // 1/10 == T exactly
    EXPECT_FALSE(pc.isDifficult(5));
}

} // namespace
