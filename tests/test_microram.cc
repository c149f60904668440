/**
 * @file
 * Tests for the MicroRAM routine store and spawn index.
 */

#include <gtest/gtest.h>

#include "core/microram.hh"

namespace
{

using namespace ssmt::core;

MicroThread
makeThread(PathId id, uint64_t spawn_pc)
{
    MicroThread t;
    t.pathId = id;
    t.spawnPc = spawn_pc;
    MicroOp op;
    op.inst.op = ssmt::isa::Opcode::StPCache;
    t.ops.push_back(op);
    return t;
}

TEST(MicroRamTest, InsertFindRemove)
{
    MicroRam ram(8);
    EXPECT_TRUE(ram.insert(makeThread(1, 100)));
    ASSERT_NE(ram.find(1), nullptr);
    EXPECT_EQ(ram.find(1)->spawnPc, 100u);
    EXPECT_TRUE(ram.contains(1));
    ram.remove(1);
    EXPECT_EQ(ram.find(1), nullptr);
    EXPECT_EQ(ram.removals(), 1u);
}

TEST(MicroRamTest, CapacityEnforced)
{
    MicroRam ram(2);
    EXPECT_TRUE(ram.insert(makeThread(1, 10)));
    EXPECT_TRUE(ram.insert(makeThread(2, 20)));
    EXPECT_FALSE(ram.insert(makeThread(3, 30)));
    EXPECT_EQ(ram.rejectedFull(), 1u);
    EXPECT_EQ(ram.size(), 2u);
    // Removing frees a slot.
    ram.remove(1);
    EXPECT_TRUE(ram.insert(makeThread(3, 30)));
}

TEST(MicroRamTest, RebuildReplacesInPlaceEvenWhenFull)
{
    MicroRam ram(1);
    EXPECT_TRUE(ram.insert(makeThread(1, 10)));
    MicroThread rebuilt = makeThread(1, 44);
    EXPECT_TRUE(ram.insert(rebuilt));   // same path: replace
    EXPECT_EQ(ram.size(), 1u);
    EXPECT_EQ(ram.find(1)->spawnPc, 44u);
    // The spawn index moved from pc 10 to pc 44.
    EXPECT_TRUE(ram.routinesAt(10).empty());
    ASSERT_EQ(ram.routinesAt(44).size(), 1u);
}

TEST(MicroRamTest, SpawnIndexGroupsByPc)
{
    MicroRam ram(8);
    ram.insert(makeThread(1, 100));
    ram.insert(makeThread(2, 100));
    ram.insert(makeThread(3, 200));
    EXPECT_EQ(ram.routinesAt(100).size(), 2u);
    EXPECT_EQ(ram.routinesAt(200).size(), 1u);
    EXPECT_TRUE(ram.routinesAt(300).empty());
    ram.remove(1);
    ASSERT_EQ(ram.routinesAt(100).size(), 1u);
    EXPECT_EQ(ram.routinesAt(100)[0].id, 2u);
    EXPECT_EQ(ram.routinesAt(100)[0].thread.get(), ram.find(2));
}

TEST(MicroRamTest, SharedHandleOutlivesRemoval)
{
    MicroRam ram(8);
    ram.insert(makeThread(1, 100));
    std::shared_ptr<const MicroThread> handle = ram.findShared(1);
    ASSERT_TRUE(handle);
    ram.remove(1);
    // A running microcontext's view stays valid after demotion.
    EXPECT_EQ(handle->spawnPc, 100u);
    EXPECT_EQ(ram.findShared(1), nullptr);
}

TEST(MicroRamTest, InsertionStatCounts)
{
    MicroRam ram(8);
    ram.insert(makeThread(1, 1));
    ram.insert(makeThread(2, 2));
    ram.insert(makeThread(1, 3));   // rebuild
    EXPECT_EQ(ram.insertions(), 3u);
}

} // namespace
