/**
 * @file
 * Tests for Microthread Builder slice extraction: scope delimiting,
 * termination rules, spawn-point selection, seq-delta, and the
 * prefix/expected split (paper Sections 4.2.2 and 4.2.4).
 *
 * Optimizations are disabled here so the raw extraction is visible;
 * test_optimizations.cc and test_pruning.cc cover the MCB passes.
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

BuilderConfig
rawConfig()
{
    BuilderConfig cfg;
    cfg.moveElimination = false;
    cfg.constantPropagation = false;
    cfg.pruningEnabled = false;
    return cfg;
}

class BuilderSliceTest : public testing::Test
{
  protected:
    Prb prb{64};
};

TEST_F(BuilderSliceTest, SimpleChainExtracted)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);                     // path branch (n=1)
    fill.ldi(10, 1, 7);
    fill.alui(11, Opcode::Addi, 2, 1, 1, 8);
    fill.alu(12, Opcode::Add, 3, 2, 2, 16);
    fill.branch(13, Opcode::Bne, 3, 0, 20, true);

    UthreadBuilder builder(rawConfig());
    auto thread = builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(thread.has_value());

    ASSERT_EQ(thread->size(), 4);
    EXPECT_EQ(thread->ops[0].inst.op, Opcode::Ldi);
    EXPECT_EQ(thread->ops[1].inst.op, Opcode::Addi);
    EXPECT_EQ(thread->ops[2].inst.op, Opcode::Add);
    EXPECT_EQ(thread->ops[3].inst.op, Opcode::StPCache);
    EXPECT_EQ(thread->ops[3].branchOp, Opcode::Bne);
    EXPECT_EQ(thread->branchPc, 13u);
    EXPECT_EQ(thread->pathN, 1);
    // Spawn at the scope start (no dependencies force it later).
    EXPECT_EQ(thread->spawnPc, 10u);
    EXPECT_EQ(thread->seqDelta, 3u);
    EXPECT_TRUE(thread->liveIns.empty());
    EXPECT_FALSE(thread->speculatesOnMemory);
}

TEST_F(BuilderSliceTest, UnrelatedInstructionsExcluded)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    fill.ldi(10, 1, 7);
    fill.ldi(11, 9, 99);                        // dead to the branch
    fill.alui(12, Opcode::Addi, 2, 1, 1, 8);
    fill.branch(13, Opcode::Beq, 2, 0, 20, false);

    UthreadBuilder builder(rawConfig());
    auto thread = builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(thread.has_value());
    for (const MicroOp &op : thread->ops)
        EXPECT_NE(op.origPc, 11u);
    EXPECT_EQ(thread->size(), 3);
}

TEST_F(BuilderSliceTest, LiveInsComputed)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    // r6 and r7 produced before the scope -> live-ins.
    fill.alu(10, Opcode::Add, 2, 6, 7, 0);
    fill.branch(11, Opcode::Blt, 2, 6, 20, true);

    UthreadBuilder builder(rawConfig());
    auto thread = builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(thread.has_value());
    ASSERT_EQ(thread->liveIns.size(), 2u);
    EXPECT_EQ(thread->liveIns[0], 6);
    EXPECT_EQ(thread->liveIns[1], 7);
}

TEST_F(BuilderSliceTest, MemoryDependenceTerminatesSlice)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    fill.ldi(10, 1, 0x100);
    fill.store(11, 1, 2, 0, 0x100);             // store feeds the load
    fill.load(12, 4, 1, 0, 0x100, 55);
    fill.branch(13, Opcode::Bne, 4, 0, 20, true);

    UthreadBuilder builder(rawConfig());
    auto thread = builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(thread.has_value());
    EXPECT_EQ(builder.stats().stopsMemDep, 1u);
    // The store is NOT included; the slice is load + Store_PCache,
    // and the spawn point sits after the store so the dependency is
    // architecturally satisfied.
    ASSERT_EQ(thread->size(), 2);
    EXPECT_TRUE(thread->ops[0].inst.isLoad());
    EXPECT_EQ(thread->spawnPc, 12u);
    EXPECT_EQ(thread->seqDelta, 1u);
    EXPECT_TRUE(thread->speculatesOnMemory);
    // r1 (the base) is a live-in now.
    ASSERT_EQ(thread->liveIns.size(), 1u);
    EXPECT_EQ(thread->liveIns[0], 1);
}

TEST_F(BuilderSliceTest, StoreToOtherAddressDoesNotTerminate)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    fill.ldi(10, 1, 0x100);
    fill.store(11, 1, 2, 8, 0x108);             // different word
    fill.load(12, 4, 1, 0, 0x100, 55);
    fill.branch(13, Opcode::Bne, 4, 0, 20, true);

    UthreadBuilder builder(rawConfig());
    auto thread = builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(thread.has_value());
    EXPECT_EQ(builder.stats().stopsMemDep, 0u);
    EXPECT_EQ(thread->spawnPc, 10u);
    EXPECT_EQ(thread->size(), 3);   // ldi, ld, st_pcache
}

TEST_F(BuilderSliceTest, McbCapacityTerminatesSlice)
{
    BuilderConfig cfg = rawConfig();
    cfg.mcbEntries = 4;
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    // Chain of 6 adds; MCB of 4 holds branch + 3 producers.
    fill.ldi(10, 1, 1);
    for (uint64_t pc = 11; pc <= 16; pc++)
        fill.alui(pc, Opcode::Addi, 1, 1, 1, 0);
    fill.branch(17, Opcode::Bne, 1, 0, 20, true);

    UthreadBuilder builder(cfg);
    auto thread = builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(thread.has_value());
    EXPECT_EQ(builder.stats().stopsMcbFull, 1u);
    EXPECT_EQ(thread->size(), 4);
    // Spawn point must come after the youngest un-sliced producer of
    // the live-in r1 (pc 13), i.e. at pc 14.
    EXPECT_EQ(thread->spawnPc, 14u);
    ASSERT_EQ(thread->liveIns.size(), 1u);
    EXPECT_EQ(thread->liveIns[0], 1);
}

TEST_F(BuilderSliceTest, PrefixAndExpectedSplitAtSpawn)
{
    PrbFiller fill(prb);
    fill.taken_jump(3, 10);                     // oldest path branch
    fill.ldi(10, 1, 256);
    fill.taken_jump(11, 12);                    // second path branch
    fill.alui(12, Opcode::Addi, 2, 1, 4, 260);
    fill.branch(13, Opcode::Bne, 2, 0, 20, true);

    UthreadBuilder builder(rawConfig());
    auto thread = builder.build(prb, pathIdOf({3, 11}), 2);
    ASSERT_TRUE(thread.has_value());
    EXPECT_EQ(thread->spawnPc, 10u);
    // Branch at pc 3 precedes the spawn -> prefix; pc 11 follows ->
    // expected.
    ASSERT_EQ(thread->prefix.size(), 1u);
    EXPECT_EQ(thread->prefix[0].pc, 3u);
    ASSERT_EQ(thread->expected.size(), 1u);
    EXPECT_EQ(thread->expected[0].pc, 11u);
    EXPECT_EQ(thread->expected[0].target, 12u);
}

TEST_F(BuilderSliceTest, JalProducerBecomesConstant)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    // A call writes the link register, which the branch compares.
    fill.push(10,
              Inst{Opcode::Jal, kRegLink, kNoReg, kNoReg, 40},
              11, 0, true, 40);
    fill.branch(40, Opcode::Bne, kRegLink, 0, 50, true);

    UthreadBuilder builder(rawConfig());
    auto thread = builder.build(prb, pathIdOf({5, 10}), 2);
    ASSERT_TRUE(thread.has_value());
    ASSERT_EQ(thread->size(), 2);
    EXPECT_EQ(thread->ops[0].inst.op, Opcode::Ldi);
    EXPECT_EQ(thread->ops[0].inst.imm, 11);
    EXPECT_EQ(thread->ops[0].inst.rd, kRegLink);
}

TEST_F(BuilderSliceTest, AheadCountsInstancesFromSpawn)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    fill.ldi(10, 9, 0);
    // The same static pc (a loop body instance appearing twice).
    fill.alui(11, Opcode::Addi, 1, 1, 1, 1);
    fill.alui(11, Opcode::Addi, 1, 1, 1, 2);
    fill.branch(12, Opcode::Bne, 1, 0, 20, true);

    UthreadBuilder builder(rawConfig());
    auto thread = builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(thread.has_value());
    // ops: addi(older, ahead=1), addi(younger, ahead=2), st_pcache.
    ASSERT_EQ(thread->size(), 3);
    EXPECT_EQ(thread->ops[0].ahead, 1u);
    EXPECT_EQ(thread->ops[1].ahead, 2u);
}

TEST_F(BuilderSliceTest, IndirectTerminatorSlicesTargetChain)
{
    // An indirect jump through a register loaded from a dispatch
    // table (the interpreter idiom): the slice must pre-compute the
    // *target*, and Store_PCache must carry the Jr branch op.
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    fill.ldi(10, 1, 0x400);
    fill.load(11, 2, 1, 0, 0x400, 77);
    fill.push(12, Inst{Opcode::Jr, kNoReg, 2, kNoReg, 0}, 0, 0, true,
              77);

    UthreadBuilder builder(rawConfig());
    auto thread = builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(thread.has_value());
    ASSERT_EQ(thread->size(), 3);
    EXPECT_EQ(thread->ops.back().inst.op, Opcode::StPCache);
    EXPECT_EQ(thread->ops.back().branchOp, Opcode::Jr);
    EXPECT_EQ(thread->ops.back().inst.rs1, 2);
    EXPECT_TRUE(thread->ops[1].inst.isLoad());
    EXPECT_EQ(thread->branchPc, 12u);
}

TEST_F(BuilderSliceTest, PathLongerThanPrbFails)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    fill.branch(10, Opcode::Bne, 1, 0, 20, true);

    UthreadBuilder builder(rawConfig());
    auto thread = builder.build(prb, pathIdOf({5}), 4);
    EXPECT_FALSE(thread.has_value());
    EXPECT_EQ(builder.stats().failScopeNotInPrb, 1u);
}

TEST_F(BuilderSliceTest, PathIdMismatchFails)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    fill.branch(10, Opcode::Bne, 1, 0, 20, true);

    UthreadBuilder builder(rawConfig());
    auto thread = builder.build(prb, 0xdeadbeef, 1);
    EXPECT_FALSE(thread.has_value());
    EXPECT_EQ(builder.stats().failPathMismatch, 1u);
}

TEST_F(BuilderSliceTest, StatsAccumulateAcrossBuilds)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    fill.ldi(10, 1, 7);
    fill.branch(11, Opcode::Bne, 1, 0, 20, true);

    UthreadBuilder builder(rawConfig());
    ASSERT_TRUE(builder.build(prb, pathIdOf({5}), 1));
    ASSERT_TRUE(builder.build(prb, pathIdOf({5}), 1));
    EXPECT_EQ(builder.stats().requests, 2u);
    EXPECT_EQ(builder.stats().built, 2u);
    EXPECT_GT(builder.stats().avgRoutineSize(), 0.0);
    EXPECT_GT(builder.stats().avgLongestChain(), 0.0);
}

TEST_F(BuilderSliceTest, LongestChainReflectsDependencies)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    fill.ldi(10, 1, 1);
    fill.alui(11, Opcode::Addi, 2, 1, 1, 2);    // depends on 1
    fill.ldi(12, 3, 9);                         // independent
    fill.alu(13, Opcode::Add, 4, 2, 3, 11);     // depends on both
    fill.branch(14, Opcode::Bne, 4, 0, 20, true);

    UthreadBuilder builder(rawConfig());
    auto thread = builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(thread.has_value());
    // ldi -> addi -> add -> st_pcache = 4-deep chain.
    EXPECT_EQ(thread->longestChain, 4);
}

} // namespace
