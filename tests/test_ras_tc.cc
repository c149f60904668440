/**
 * @file
 * Tests for the return-address stack and the indirect target cache.
 */

#include <gtest/gtest.h>

#include "bpred/ras.hh"
#include "bpred/target_cache.hh"

namespace
{

using ssmt::bpred::Ras;
using ssmt::bpred::TargetCache;

TEST(RasTest, LifoOrder)
{
    Ras ras(32);
    ras.push(1);
    ras.push(2);
    ras.push(3);
    EXPECT_EQ(ras.pop(), 3u);
    EXPECT_EQ(ras.pop(), 2u);
    EXPECT_EQ(ras.pop(), 1u);
    EXPECT_TRUE(ras.empty());
}

TEST(RasTest, UnderflowReturnsZero)
{
    Ras ras(4);
    EXPECT_EQ(ras.pop(), 0u);
    EXPECT_EQ(ras.top(), 0u);
}

TEST(RasTest, OverflowWrapsLikeHardware)
{
    Ras ras(4);
    for (uint64_t i = 1; i <= 6; i++)
        ras.push(i);
    // Entries 1 and 2 were overwritten; depth capped at 4.
    EXPECT_EQ(ras.size(), 4u);
    EXPECT_EQ(ras.pop(), 6u);
    EXPECT_EQ(ras.pop(), 5u);
    EXPECT_EQ(ras.pop(), 4u);
    EXPECT_EQ(ras.pop(), 3u);
    EXPECT_TRUE(ras.empty());
}

TEST(RasTest, TopPeeksWithoutPopping)
{
    Ras ras(8);
    ras.push(42);
    EXPECT_EQ(ras.top(), 42u);
    EXPECT_EQ(ras.size(), 1u);
}

TEST(RasTest, UnderflowDoesNotMovePointers)
{
    // Regression pin: pop-on-empty must be a pure no-op. A version
    // that decremented topIdx_ before the emptiness check would make
    // the next push land one slot off and corrupt LIFO order.
    Ras ras(4);
    for (int i = 0; i < 10; i++)
        EXPECT_EQ(ras.pop(), 0u);
    ras.push(7);
    ras.push(8);
    EXPECT_EQ(ras.pop(), 8u);
    EXPECT_EQ(ras.pop(), 7u);
    EXPECT_EQ(ras.pop(), 0u);
}

TEST(RasTest, OverflowThenUnderflowStaysConsistent)
{
    // Wrap past depth twice, drain to empty, keep popping, refill:
    // size_ and topIdx_ must stay in lock-step through every phase.
    Ras ras(3);
    for (uint64_t i = 1; i <= 8; i++)
        ras.push(i);
    EXPECT_EQ(ras.size(), 3u);
    EXPECT_EQ(ras.pop(), 8u);
    EXPECT_EQ(ras.pop(), 7u);
    EXPECT_EQ(ras.pop(), 6u);
    EXPECT_TRUE(ras.empty());
    EXPECT_EQ(ras.pop(), 0u);
    ras.push(99);
    EXPECT_EQ(ras.top(), 99u);
    EXPECT_EQ(ras.size(), 1u);
}

TEST(RasDeathTest, ZeroDepthPanics)
{
    EXPECT_DEATH(Ras(0), "depth");
}

TEST(TargetCacheTest, LearnsStableTarget)
{
    TargetCache tc(1024);
    for (int i = 0; i < 8; i++)
        tc.update(50, 900);
    EXPECT_EQ(tc.predict(50), 900u);
}

TEST(TargetCacheTest, HistoryDisambiguatesContexts)
{
    // One indirect branch alternating between two targets in a
    // fixed pattern: path-history indexing should learn both.
    TargetCache tc(64 * 1024);
    int correct = 0;
    for (int i = 0; i < 2000; i++) {
        uint64_t target = (i % 2) ? 111 : 222;
        if (i > 100 && tc.predict(50) == target)
            correct++;
        tc.update(50, target);
    }
    EXPECT_GT(correct, 1700);
}

} // namespace
