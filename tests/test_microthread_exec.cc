/**
 * @file
 * Tests for the routine-level library API: validateMicroThread,
 * evalStorePCache, and executeMicroThread (the reference semantics
 * of a microcontext).
 */

#include <gtest/gtest.h>

#include "core/microthread.hh"
#include "core/uthread_builder.hh"
#include "prb_fixture.hh"
#include "vpred/value_predictor.hh"

namespace
{

using namespace ssmt::core;
using namespace ssmt::isa;
using ssmt::test::PrbFiller;
using ssmt::test::pathIdOf;

MicroOp
terminator(Opcode branch_op, RegIndex a, RegIndex b, int64_t target)
{
    MicroOp op;
    op.inst = Inst{Opcode::StPCache, kNoReg, a, b, target};
    op.branchOp = branch_op;
    return op;
}

MicroThread
minimalThread()
{
    MicroThread t;
    t.pathN = 0;
    t.ops.push_back(terminator(Opcode::Bne, 1, 0, 42));
    return t;
}

TEST(ValidateTest, MinimalRoutineValid)
{
    MicroThread t = minimalThread();
    EXPECT_EQ(validateMicroThread(t), nullptr);
}

TEST(ValidateTest, EmptyRoutineInvalid)
{
    MicroThread t;
    EXPECT_NE(validateMicroThread(t), nullptr);
}

TEST(ValidateTest, MissingTerminatorInvalid)
{
    MicroThread t;
    t.pathN = 0;
    MicroOp op;
    op.inst = Inst{Opcode::Add, 1, 2, 3, 0};
    t.ops.push_back(op);
    EXPECT_NE(validateMicroThread(t), nullptr);
}

TEST(ValidateTest, MisplacedTerminatorInvalid)
{
    MicroThread t = minimalThread();
    MicroOp op;
    op.inst = Inst{Opcode::Add, 1, 2, 3, 0};
    t.ops.push_back(op);    // op after StPCache
    EXPECT_NE(validateMicroThread(t), nullptr);
}

TEST(ValidateTest, ControlFlowInsideInvalid)
{
    MicroThread t = minimalThread();
    MicroOp jump;
    jump.inst = Inst{Opcode::J, kNoReg, kNoReg, kNoReg, 5};
    t.ops.insert(t.ops.begin(), jump);
    EXPECT_NE(validateMicroThread(t), nullptr);
}

TEST(ValidateTest, StoreInsideInvalid)
{
    MicroThread t = minimalThread();
    MicroOp store;
    store.inst = Inst{Opcode::St, kNoReg, 1, 2, 0};
    t.ops.insert(t.ops.begin(), store);
    EXPECT_NE(validateMicroThread(t), nullptr);
}

TEST(ValidateTest, VpInstWithSourcesInvalid)
{
    MicroThread t = minimalThread();
    MicroOp vp;
    vp.inst = Inst{Opcode::VpInst, 1, 2, kNoReg, 0};
    t.ops.insert(t.ops.begin(), vp);
    EXPECT_NE(validateMicroThread(t), nullptr);
}

TEST(ValidateTest, ZeroAheadInvalid)
{
    MicroThread t = minimalThread();
    MicroOp vp;
    vp.inst = Inst{Opcode::VpInst, 1, kNoReg, kNoReg, 0};
    vp.ahead = 0;
    t.ops.insert(t.ops.begin(), vp);
    EXPECT_NE(validateMicroThread(t), nullptr);
}

TEST(ValidateTest, PathCoverageMismatchInvalid)
{
    MicroThread t = minimalThread();
    t.pathN = 3;    // but prefix+expected are empty
    EXPECT_NE(validateMicroThread(t), nullptr);
}

struct CondCase
{
    Opcode op;
    uint64_t a;
    uint64_t b;
    bool taken;
};

class EvalStorePCache : public testing::TestWithParam<CondCase>
{
};

TEST_P(EvalStorePCache, ConditionSemantics)
{
    const CondCase &c = GetParam();
    RegFile regs;
    regs.write(1, c.a);
    regs.write(2, c.b);
    RoutineOutcome out =
        evalStorePCache(terminator(c.op, 1, 2, 99), regs);
    EXPECT_EQ(out.taken, c.taken) << opcodeName(c.op);
    EXPECT_EQ(out.target, 99u);
}

// Static storage zero-fills the padding. gtest prints a parameter with
// no printer as its raw bytes, and the test's name is made from that
// dump, so padding left uninitialised would change the names from one
// build to the next.
const CondCase kCondCases[] = {
    CondCase{Opcode::Beq, 5, 5, true},
    CondCase{Opcode::Beq, 5, 6, false},
    CondCase{Opcode::Bne, 5, 6, true},
    CondCase{Opcode::Blt, static_cast<uint64_t>(-1), 0, true},
    CondCase{Opcode::Bge, 0, static_cast<uint64_t>(-1), true},
    CondCase{Opcode::Bltu, static_cast<uint64_t>(-1), 0, false},
    CondCase{Opcode::Bgeu, static_cast<uint64_t>(-1), 0, true},
};

INSTANTIATE_TEST_SUITE_P(Conditions, EvalStorePCache,
                         testing::ValuesIn(kCondCases));

TEST(EvalStorePCacheTest, IndirectTargetIsRegisterValue)
{
    RegFile regs;
    regs.write(3, 777);
    MicroOp op;
    op.inst = Inst{Opcode::StPCache, kNoReg, 3, kNoReg, 0};
    op.branchOp = Opcode::Jr;
    RoutineOutcome out = evalStorePCache(op, regs);
    EXPECT_TRUE(out.taken);
    EXPECT_EQ(out.target, 777u);
}

TEST(ExecuteRoutineTest, MatchesPrimaryExecution)
{
    // Build a real routine from a PRB and replay it over the same
    // live-in state: the outcome must match the recorded branch.
    Prb prb(64);
    PrbFiller fill(prb);
    fill.taken_jump(5, 10);
    fill.ldi(10, 1, 0x500);
    fill.load(11, 2, 1, 0, 0x500, 31);
    fill.alui(12, Opcode::Andi, 3, 2, 1, 1);
    fill.branch(13, Opcode::Bne, 3, 0, 20, true);

    ssmt::vpred::ValuePredictor vp(64), ap(64);
    UthreadBuilder builder;
    auto thread = builder.build(prb, pathIdOf({5}), 1, vp, ap);
    ASSERT_TRUE(thread.has_value());

    RegFile regs;
    MemoryImage mem;
    mem.store(0x500, 31);   // odd -> branch taken
    RoutineOutcome out = executeMicroThread(*thread, regs, mem, {});
    EXPECT_TRUE(out.taken);
    EXPECT_EQ(out.target, 20u);

    mem.store(0x500, 30);   // even -> not taken
    RegFile regs2;
    out = executeMicroThread(*thread, regs2, mem, {});
    EXPECT_FALSE(out.taken);
}

TEST(ExecuteRoutineTest, PrunedOpsReadCapturedPredictions)
{
    MicroThread t;
    t.pathN = 0;
    MicroOp vp;
    vp.inst = Inst{Opcode::VpInst, 4, kNoReg, kNoReg, 0};
    t.ops.push_back(vp);
    t.ops.push_back(terminator(Opcode::Bne, 4, 0, 7));
    ASSERT_EQ(validateMicroThread(t), nullptr);

    RegFile regs;
    MemoryImage mem;
    std::vector<uint64_t> predicted = {123, 0};
    RoutineOutcome out = executeMicroThread(t, regs, mem, predicted);
    EXPECT_TRUE(out.taken);     // r4 = 123 != 0

    predicted[0] = 0;
    RegFile regs2;
    out = executeMicroThread(t, regs2, mem, predicted);
    EXPECT_FALSE(out.taken);
}

TEST(ExecuteRoutineDeathTest, MissingTerminatorPanics)
{
    MicroThread t;
    MicroOp op;
    op.inst = Inst{Opcode::Add, 1, 2, 3, 0};
    t.ops.push_back(op);
    RegFile regs;
    MemoryImage mem;
    EXPECT_DEATH(executeMicroThread(t, regs, mem, {}),
                 "without Store_PCache");
}

} // namespace
