/**
 * @file
 * Tests for the front-end path history tracker.
 */

#include <gtest/gtest.h>

#include "core/path_tracker.hh"

namespace
{

using namespace ssmt::core;

TEST(PathTrackerTest, RecentReturnsNewestFirst)
{
    PathTracker t(16);
    t.push(4);
    t.push(8);
    t.push(12);
    EXPECT_EQ(t.recent(0), 12u);
    EXPECT_EQ(t.recent(1), 8u);
    EXPECT_EQ(t.recent(2), 4u);
}

TEST(PathTrackerTest, RecentBeyondHistoryIsZero)
{
    PathTracker t(16);
    t.push(4);
    EXPECT_EQ(t.recent(1), 0u);
    EXPECT_EQ(t.recent(15), 0u);
}

TEST(PathTrackerTest, SizeSaturatesAtDepth)
{
    PathTracker t(4);
    for (int i = 0; i < 10; i++)
        t.push(i * 4);
    EXPECT_EQ(t.size(), 4);
    EXPECT_EQ(t.totalPushes(), 10u);
    EXPECT_EQ(t.recent(0), 36u);
    EXPECT_EQ(t.recent(3), 24u);
}

TEST(PathTrackerTest, PathIdMatchesManualHash)
{
    PathTracker t(16);
    std::vector<uint64_t> addrs = {40, 80, 120, 160, 200};
    for (uint64_t a : addrs)
        t.push(a);
    EXPECT_EQ(t.pathId(5), hashPath(addrs));
    std::vector<uint64_t> last3(addrs.end() - 3, addrs.end());
    EXPECT_EQ(t.pathId(3), hashPath(last3));
}

TEST(PathTrackerTest, WarmUpUsesAvailableHistory)
{
    PathTracker t(16);
    t.push(40);
    t.push(80);
    // Asking for n=10 with only 2 pushes hashes the 2 available.
    EXPECT_EQ(t.pathId(10),
              hashPath(std::vector<uint64_t>{40, 80}));
}

TEST(PathTrackerTest, RingOverwriteKeepsNewest)
{
    PathTracker t(4);
    for (uint64_t a : {4u, 8u, 12u, 16u, 20u, 24u})
        t.push(a);
    EXPECT_EQ(t.pathId(4),
              hashPath(std::vector<uint64_t>{12, 16, 20, 24}));
}

TEST(PathTrackerTest, DistinctCallSitesYieldDistinctIds)
{
    // The motivating property: two different prefixes ending in the
    // same branch give different Path_Ids.
    PathTracker a(16);
    PathTracker b(16);
    a.push(100);
    b.push(200);
    a.push(400);
    b.push(400);
    EXPECT_NE(a.pathId(2), b.pathId(2));
    // But the n=1 view (which forgets the call site) coincides.
    EXPECT_EQ(a.pathId(1), b.pathId(1));
}

} // namespace
