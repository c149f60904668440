/**
 * @file
 * Tests for the MCB optimizations: move elimination, constant
 * propagation/folding, and dead-op elimination (paper Section 4.2.3).
 */

#include <gtest/gtest.h>

#include "core/uthread_builder.hh"
#include "isa/executor.hh"
#include "prb_fixture.hh"

namespace
{

using namespace ssmt::core;
using namespace ssmt::isa;
using ssmt::test::PrbFiller;
using ssmt::test::pathIdOf;

class OptimizationTest : public testing::Test
{
  protected:
    Prb prb{64};

    BuilderConfig
    optConfig()
    {
        BuilderConfig cfg;
        cfg.moveElimination = true;
        cfg.constantPropagation = true;
        cfg.pruningEnabled = false;
        return cfg;
    }
};

TEST_F(OptimizationTest, MoveEliminated)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    // r2 = mv r6; branch uses r2: the move disappears and the
    // Store_PCache reads r6 directly.
    fill.alu(10, Opcode::Add, 2, 6, kRegZero, 0);
    fill.branch(11, Opcode::Bne, 2, 0, 20, true);

    UthreadBuilder builder(optConfig());
    auto thread = builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(thread.has_value());
    ASSERT_EQ(thread->size(), 1);
    EXPECT_EQ(thread->ops[0].inst.op, Opcode::StPCache);
    EXPECT_EQ(thread->ops[0].inst.rs1, 6);
    ASSERT_EQ(thread->liveIns.size(), 1u);
    EXPECT_EQ(thread->liveIns[0], 6);
}

TEST_F(OptimizationTest, MoveChainCollapses)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    fill.alu(10, Opcode::Add, 2, 6, kRegZero, 0);   // r2 = r6
    fill.alu(11, Opcode::Or, 3, 2, kRegZero, 0);    // r3 = r2
    fill.alui(12, Opcode::Addi, 4, 3, 0, 0);        // r4 = r3
    fill.branch(13, Opcode::Bne, 4, 0, 20, true);

    UthreadBuilder builder(optConfig());
    auto thread = builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(thread.has_value());
    ASSERT_EQ(thread->size(), 1);
    EXPECT_EQ(thread->ops[0].inst.rs1, 6);
}

TEST_F(OptimizationTest, MoveNotForwardedPastRedefinition)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    fill.alu(10, Opcode::Add, 2, 6, kRegZero, 0);   // r2 = r6
    fill.ldi(11, 6, 42);                            // r6 redefined!
    fill.alu(12, Opcode::Add, 3, 2, 6, 0);          // r3 = r2 + r6
    fill.branch(13, Opcode::Bne, 3, 0, 20, true);

    UthreadBuilder builder(optConfig());
    auto thread = builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(thread.has_value());
    // The add must NOT read r6 for its first operand (the copy fact
    // died at pc 11); the old r6 value flows through the move.
    bool found_add = false;
    for (const MicroOp &op : thread->ops) {
        if (op.origPc == 12) {
            found_add = true;
            EXPECT_EQ(op.inst.rs1, 2);
        }
    }
    EXPECT_TRUE(found_add);
    // And the move itself must survive DCE (it is still read).
    bool found_move = false;
    for (const MicroOp &op : thread->ops)
        if (op.origPc == 10)
            found_move = true;
    EXPECT_TRUE(found_move);
}

TEST_F(OptimizationTest, ConstantsFold)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    fill.ldi(10, 1, 6);
    fill.ldi(11, 2, 7);
    fill.alu(12, Opcode::Mul, 3, 1, 2, 42);
    fill.alui(13, Opcode::Addi, 4, 3, 1, 43);
    fill.branch(14, Opcode::Bne, 4, 0, 20, true);

    UthreadBuilder builder(optConfig());
    auto thread = builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(thread.has_value());
    // Everything folds to one Ldi feeding Store_PCache.
    ASSERT_EQ(thread->size(), 2);
    EXPECT_EQ(thread->ops[0].inst.op, Opcode::Ldi);
    EXPECT_EQ(thread->ops[0].inst.imm, 43);
    EXPECT_EQ(thread->longestChain, 2);
}

TEST_F(OptimizationTest, RegisterZeroIsAKnownConstant)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    // slti r2, r0, 5 -> constant 1.
    fill.alui(10, Opcode::Slti, 2, kRegZero, 5, 1);
    fill.branch(11, Opcode::Bne, 2, 0, 20, true);

    UthreadBuilder builder(optConfig());
    auto thread = builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(thread.has_value());
    ASSERT_EQ(thread->size(), 2);
    EXPECT_EQ(thread->ops[0].inst.op, Opcode::Ldi);
    EXPECT_EQ(thread->ops[0].inst.imm, 1);
}

TEST_F(OptimizationTest, NonConstantSourcesNotFolded)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    fill.alui(10, Opcode::Addi, 2, 6, 5, 0);    // r6 is a live-in
    fill.branch(11, Opcode::Bne, 2, 0, 20, true);

    UthreadBuilder builder(optConfig());
    auto thread = builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(thread.has_value());
    ASSERT_EQ(thread->size(), 2);
    EXPECT_EQ(thread->ops[0].inst.op, Opcode::Addi);
}

TEST_F(OptimizationTest, LoadsNeverFolded)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    fill.ldi(10, 1, 0x100);
    fill.load(11, 2, 1, 0, 0x100, 9);
    fill.branch(12, Opcode::Bne, 2, 0, 20, true);

    UthreadBuilder builder(optConfig());
    auto thread = builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(thread.has_value());
    bool has_load = false;
    for (const MicroOp &op : thread->ops)
        has_load |= op.inst.isLoad();
    EXPECT_TRUE(has_load);
}

TEST_F(OptimizationTest, OptimizedRoutineComputesSameOutcome)
{
    // Semantic check: execute the raw and optimized routines over
    // the same live-in state; the Store_PCache condition operands
    // must match.
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    fill.ldi(10, 1, 100);
    fill.alu(11, Opcode::Add, 2, 1, 6, 0);      // r6 live-in
    fill.alu(12, Opcode::Or, 3, 2, kRegZero, 0);
    fill.alui(13, Opcode::Addi, 4, 3, -50, 0);
    fill.branch(14, Opcode::Blt, 4, 7, 20, true);   // r7 live-in

    auto run_routine = [](const MicroThread &thread,
                          uint64_t r6, uint64_t r7) {
        RegFile regs;
        MemoryImage mem;
        regs.write(6, r6);
        regs.write(7, r7);
        for (const MicroOp &op : thread.ops) {
            if (op.inst.op == Opcode::StPCache) {
                int64_t a = static_cast<int64_t>(
                    regs.read(op.inst.rs1));
                int64_t b = static_cast<int64_t>(
                    regs.read(op.inst.rs2));
                return a < b;   // Blt semantics
            }
            step(op.inst, op.origPc, regs, mem);
        }
        ADD_FAILURE() << "no Store_PCache reached";
        return false;
    };

    UthreadBuilder raw_builder(BuilderConfig{64, false, false, false});
    UthreadBuilder opt_builder(BuilderConfig{64, true, true, false});
    auto raw = raw_builder.build(prb, pathIdOf({5}), 1);
    auto opt = opt_builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(raw && opt);
    EXPECT_LT(opt->size(), raw->size());
    for (uint64_t r6 : {0ull, 5ull, 1000ull, ~0ull})
        for (uint64_t r7 : {0ull, 60ull, 2000ull})
            EXPECT_EQ(run_routine(*opt, r6, r7),
                      run_routine(*raw, r6, r7))
                << "r6=" << r6 << " r7=" << r7;
}

TEST_F(OptimizationTest, ChainShortenedByFolding)
{
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    fill.ldi(10, 1, 2);
    fill.alui(11, Opcode::Slli, 2, 1, 4, 32);
    fill.alui(12, Opcode::Addi, 3, 2, 1, 33);
    fill.alu(13, Opcode::Add, 4, 3, 6, 0);      // live-in r6 joins
    fill.branch(14, Opcode::Bne, 4, 0, 20, true);

    UthreadBuilder raw_builder(BuilderConfig{64, false, false, false});
    UthreadBuilder opt_builder(BuilderConfig{64, true, true, false});
    auto raw = raw_builder.build(prb, pathIdOf({5}), 1);
    auto opt = opt_builder.build(prb, pathIdOf({5}), 1);
    ASSERT_TRUE(raw && opt);
    EXPECT_LT(opt->longestChain, raw->longestChain);
}

} // namespace
