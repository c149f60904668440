/**
 * @file
 * Tests for the pruning optimization: replacing confidently
 * predictable sub-trees with Vp_Inst / Ap_Inst (paper Section 4.2.5).
 */

#include <gtest/gtest.h>

#include "core/uthread_builder.hh"
#include "prb_fixture.hh"

namespace
{

using namespace ssmt::core;
using namespace ssmt::isa;
using ssmt::test::PrbFiller;
using ssmt::test::pathIdOf;

class PruningTest : public testing::Test
{
  protected:
    Prb prb{64};

    BuilderConfig
    pruneConfig()
    {
        BuilderConfig cfg;
        cfg.pruningEnabled = true;
        return cfg;
    }
};

TEST_F(PruningTest, ConfidentValueSubtreeReplacedByVpInst)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    // A 3-op sub-tree producing r3; the final producer is marked
    // value-confident in the PRB.
    fill.alu(10, Opcode::Add, 1, 6, 7, 0);
    fill.alui(11, Opcode::Slli, 2, 1, 2, 0);
    fill.alu(12, Opcode::Xor, 3, 2, 1, 0, /*vp_conf=*/true);
    fill.branch(13, Opcode::Bne, 3, 0, 20, true);

    UthreadBuilder builder(pruneConfig());
    auto thread = builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(thread.has_value());
    EXPECT_TRUE(thread->pruned);
    // The whole sub-tree collapses to Vp_Inst + Store_PCache.
    ASSERT_EQ(thread->size(), 2);
    EXPECT_EQ(thread->ops[0].inst.op, Opcode::VpInst);
    EXPECT_EQ(thread->ops[0].inst.rd, 3);
    EXPECT_EQ(thread->ops[0].origPc, 12u);
    // The live-in dependencies vanish with the sub-tree.
    EXPECT_TRUE(thread->liveIns.empty());
    EXPECT_EQ(builder.stats().prunedSubtrees, 1u);
    EXPECT_EQ(builder.stats().prunedRoutines, 1u);
}

TEST_F(PruningTest, UnconfidentOpsUntouched)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    fill.alu(10, Opcode::Add, 1, 6, 7, 0);
    fill.branch(11, Opcode::Bne, 1, 0, 20, true);

    UthreadBuilder builder(pruneConfig());
    auto thread = builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(thread.has_value());
    EXPECT_FALSE(thread->pruned);
    EXPECT_EQ(thread->ops[0].inst.op, Opcode::Add);
}

TEST_F(PruningTest, AddressPrunedLoadKeepsLoadAddsApInst)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    // Base-address sub-tree feeding a load; the load's address is
    // confident but its value is not.
    fill.alu(10, Opcode::Add, 1, 6, 7, 0);
    fill.load(11, 2, 1, 16, 0x200, 9, /*vp_conf=*/false,
              /*ap_conf=*/true);
    fill.branch(12, Opcode::Bne, 2, 0, 20, true);

    UthreadBuilder builder(pruneConfig());
    auto thread = builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(thread.has_value());
    EXPECT_TRUE(thread->pruned);
    // Ap_Inst provides r1; the load survives ("the prunable load
    // itself is not removed"); the address sub-tree dies.
    ASSERT_EQ(thread->size(), 3);
    EXPECT_EQ(thread->ops[0].inst.op, Opcode::ApInst);
    EXPECT_EQ(thread->ops[0].inst.rd, 1);
    EXPECT_EQ(thread->ops[0].origPc, 11u);
    EXPECT_TRUE(thread->ops[1].inst.isLoad());
    EXPECT_TRUE(thread->liveIns.empty());
}

TEST_F(PruningTest, ValueConfidentLoadPrunedAsValue)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    fill.alu(10, Opcode::Add, 1, 6, 7, 0);
    fill.load(11, 2, 1, 16, 0x200, 9, /*vp_conf=*/true,
              /*ap_conf=*/true);
    fill.branch(12, Opcode::Bne, 2, 0, 20, true);

    UthreadBuilder builder(pruneConfig());
    auto thread = builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(thread.has_value());
    // Value pruning wins: no load, no Ap_Inst, just Vp_Inst.
    ASSERT_EQ(thread->size(), 2);
    EXPECT_EQ(thread->ops[0].inst.op, Opcode::VpInst);
    EXPECT_FALSE(thread->speculatesOnMemory);
}

TEST_F(PruningTest, TerminatingBranchNeverPruned)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    fill.alu(10, Opcode::Add, 1, 6, 7, 0, /*vp_conf=*/true);
    fill.branch(11, Opcode::Bne, 1, 0, 20, true);

    UthreadBuilder builder(pruneConfig());
    auto thread = builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(thread.has_value());
    EXPECT_EQ(thread->ops.back().inst.op, Opcode::StPCache);
}

TEST_F(PruningTest, LdiNotWorthPruning)
{
    // Pruning a constant gains nothing; the builder skips Ldi.
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    fill.ldi(10, 1, 42, /*vp_conf=*/true);
    fill.alu(11, Opcode::Add, 2, 1, 6, 0);
    fill.branch(12, Opcode::Bne, 2, 0, 20, true);

    BuilderConfig cfg = pruneConfig();
    cfg.constantPropagation = false;    // keep the Ldi visible
    cfg.moveElimination = false;
    UthreadBuilder builder(cfg);
    auto thread = builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(thread.has_value());
    EXPECT_EQ(thread->ops[0].inst.op, Opcode::Ldi);
}

TEST_F(PruningTest, PruningShortensChainAndSize)
{
    // Figure 8's claim in miniature: pruning shortens routines and
    // dependency chains.
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    fill.alu(10, Opcode::Add, 1, 6, 7, 0);
    fill.alu(11, Opcode::Mul, 2, 1, 1, 0);
    fill.alu(12, Opcode::Xor, 3, 2, 1, 0, /*vp_conf=*/true);
    fill.alu(13, Opcode::Add, 4, 3, 8, 0);      // r8 live-in
    fill.branch(14, Opcode::Bne, 4, 0, 20, true);

    BuilderConfig raw;
    raw.pruningEnabled = false;
    UthreadBuilder raw_builder(raw);
    UthreadBuilder prune_builder(pruneConfig());
    auto unpruned = raw_builder.build(prb, pathIdOf({5}), 1);
    auto pruned = prune_builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(unpruned && pruned);
    EXPECT_LT(pruned->size(), unpruned->size());
    EXPECT_LT(pruned->longestChain, unpruned->longestChain);
    EXPECT_LT(pruned->liveIns.size(), unpruned->liveIns.size());
}

TEST_F(PruningTest, AheadPropagatedToVpInst)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    // Two instances of the confident pc in scope.
    fill.alui(11, Opcode::Addi, 1, 1, 1, 1, /*vp_conf=*/true);
    fill.alui(11, Opcode::Addi, 1, 1, 1, 2, /*vp_conf=*/true);
    fill.branch(12, Opcode::Bne, 1, 0, 20, true);

    UthreadBuilder builder(pruneConfig());
    auto thread = builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(thread.has_value());
    // Both addis pruned; DCE keeps only the younger (its value feeds
    // the branch), whose ahead is 2.
    ASSERT_EQ(thread->size(), 2);
    EXPECT_EQ(thread->ops[0].inst.op, Opcode::VpInst);
    EXPECT_EQ(thread->ops[0].ahead, 2u);
}

} // namespace
