/**
 * @file
 * Tests for the shared functional-unit issue-slot pool.
 */

#include <gtest/gtest.h>

#include "cpu/fu_pool.hh"

namespace
{

using ssmt::cpu::FuPool;

constexpr uint64_t kRing = FuPool::kInitialSlots;

TEST(FuPoolTest, GrantsUpToWidthPerCycle)
{
    FuPool fu(4);
    for (int i = 0; i < 4; i++)
        EXPECT_EQ(fu.schedule(10, 0), 10u);
    EXPECT_EQ(fu.schedule(10, 0), 11u);    // fifth spills to next cycle
}

TEST(FuPoolTest, SpilloverCascades)
{
    FuPool fu(1);
    EXPECT_EQ(fu.schedule(5, 0), 5u);
    EXPECT_EQ(fu.schedule(5, 0), 6u);
    EXPECT_EQ(fu.schedule(5, 0), 7u);
    EXPECT_EQ(fu.schedule(6, 0), 8u);
}

TEST(FuPoolTest, IndependentCyclesDoNotInterfere)
{
    FuPool fu(2);
    EXPECT_EQ(fu.schedule(100, 0), 100u);
    EXPECT_EQ(fu.schedule(200, 0), 200u);
    EXPECT_EQ(fu.schedule(100, 0), 100u);
    EXPECT_EQ(fu.schedule(100, 0), 101u);
}

TEST(FuPoolTest, RingWrapReusesSlots)
{
    FuPool fu(1);
    // Cycle 3 and cycle 3+kRing share a slot index. Once the clock
    // has passed cycle 3, its claim is dead and the later cycle takes
    // the slot without growing the ring.
    EXPECT_EQ(fu.schedule(3, 0), 3u);
    EXPECT_EQ(fu.schedule(3 + kRing, 4), 3 + kRing);
    EXPECT_EQ(fu.schedule(3 + 2 * kRing, 3 + kRing + 1), 3 + 2 * kRing);
    EXPECT_EQ(fu.ringSlots(), kRing);
}

TEST(FuPoolTest, LiveClaimBeyondTheRingIsKept)
{
    // Cycles 5 and 5 + 131072 share a slot index in any ring of up
    // to 131,072 slots. Both claims are live, so the ring must keep
    // the first one and the third request spills to cycle 6.
    FuPool fu(1);
    EXPECT_EQ(fu.schedule(5, 0), 5u);
    EXPECT_EQ(fu.schedule(5 + 131072, 0), 5u + 131072);
    EXPECT_EQ(fu.schedule(5, 0), 6u);
}

TEST(FuPoolTest, RingGrowsToHoldClaimsFarApart)
{
    // 256 live claims 10,000 cycles apart: some pairs share a slot
    // index until the ring reaches 4,096 slots, and every claim must
    // survive the re-placements on the way there.
    FuPool fu(1);
    const uint64_t now = 7;
    for (uint64_t i = 0; i < 256; i++)
        EXPECT_EQ(fu.schedule(now + 10000 * i, now), now + 10000 * i);
    EXPECT_EQ(fu.ringSlots(), 4096u);
    for (uint64_t i = 0; i < 256; i++)
        EXPECT_EQ(fu.schedule(now + 10000 * i, now), now + 10000 * i + 1);
    EXPECT_EQ(fu.slotsGranted(), 512u);
}

TEST(FuPoolTest, CountsGrants)
{
    FuPool fu(2);
    fu.schedule(0, 0);
    fu.schedule(0, 0);
    fu.schedule(1, 0);
    EXPECT_EQ(fu.slotsGranted(), 3u);
}

TEST(FuPoolDeathTest, ClaimBeforeNowPanics)
{
    FuPool fu(1);
    EXPECT_DEATH(fu.schedule(4, 5), "before the current cycle");
}

/** Property: N requests at the same cycle occupy ceil(N/width)
 *  consecutive cycles. */
class FuPoolWidth : public testing::TestWithParam<int>
{
};

TEST_P(FuPoolWidth, PackingIsTight)
{
    int width = GetParam();
    FuPool fu(width);
    int requests = width * 5 + 3;
    uint64_t max_cycle = 0;
    for (int i = 0; i < requests; i++)
        max_cycle = std::max(max_cycle, fu.schedule(50, 0));
    EXPECT_EQ(max_cycle, 50u + (requests - 1) / width);
}

INSTANTIATE_TEST_SUITE_P(Widths, FuPoolWidth,
                         testing::Values(1, 2, 4, 8, 16));

} // namespace
