/**
 * @file
 * Tests for the Post-Retirement Buffer ring.
 */

#include <gtest/gtest.h>

#include "core/prb.hh"
#include "prb_fixture.hh"

namespace
{

using namespace ssmt::core;
using ssmt::test::PrbFiller;

TEST(PrbTest, PositionsOldestToYoungest)
{
    Prb prb(8);
    PrbFiller fill(prb);
    fill.ldi(1, 1, 10);
    fill.ldi(2, 2, 20);
    fill.ldi(3, 3, 30);
    EXPECT_EQ(prb.size(), 3u);
    EXPECT_EQ(prb.at(0).pc, 1u);
    EXPECT_EQ(prb.at(2).pc, 3u);
    EXPECT_EQ(prb.youngest().pc, 3u);
}

TEST(PrbTest, OverflowDropsOldest)
{
    Prb prb(4);
    PrbFiller fill(prb);
    for (uint64_t pc = 1; pc <= 6; pc++)
        fill.ldi(pc, 1, 0);
    EXPECT_EQ(prb.size(), 4u);
    EXPECT_EQ(prb.at(0).pc, 3u);
    EXPECT_EQ(prb.youngest().pc, 6u);
}

TEST(PrbTest, SequenceNumbersPreserved)
{
    Prb prb(8);
    PrbFiller fill(prb, 500);
    fill.ldi(1, 1, 0);
    fill.ldi(2, 2, 0);
    EXPECT_EQ(prb.at(0).seq, 500u);
    EXPECT_EQ(prb.at(1).seq, 501u);
}

TEST(PrbTest, MetadataRoundTrip)
{
    Prb prb(8);
    PrbFiller fill(prb);
    fill.load(7, 3, 4, 16, 0x1010, 99, true, true);
    const PrbEntry &entry = prb.youngest();
    EXPECT_EQ(entry.memAddr, 0x1010u);
    EXPECT_EQ(entry.value, 99u);
    EXPECT_TRUE(entry.vpConfident);
    EXPECT_TRUE(entry.apConfident);
    EXPECT_TRUE(entry.inst.isLoad());
}

TEST(PrbDeathTest, OutOfRangePositionPanics)
{
    Prb prb(8);
    EXPECT_DEATH(prb.at(0), "out of range");
}

TEST(PrbTest, CapacityMatchesConfig)
{
    Prb prb(512);
    EXPECT_EQ(prb.capacity(), 512u);
    PrbFiller fill(prb);
    for (uint64_t i = 0; i < 600; i++)
        fill.ldi(i, 1, 0);
    EXPECT_EQ(prb.size(), 512u);
    EXPECT_EQ(prb.at(0).pc, 88u);
}

} // namespace
