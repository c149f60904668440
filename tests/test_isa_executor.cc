/**
 * @file
 * Functional-semantics tests for the executor, including a
 * parameterized sweep over ALU opcodes against reference lambdas.
 */

#include <gtest/gtest.h>

#include <functional>

#include "isa/builder.hh"
#include "isa/executor.hh"
#include "isa/program.hh"

namespace
{

using namespace ssmt::isa;

uint64_t
evalRRR(Opcode op, uint64_t a, uint64_t b)
{
    RegFile regs;
    MemoryImage mem;
    regs.write(1, a);
    regs.write(2, b);
    Inst inst{op, 3, 1, 2, 0};
    return step(inst, 0, regs, mem).value;
}

struct AluCase
{
    Opcode op;
    uint64_t a;
    uint64_t b;
    uint64_t expected;
};

class AluSemantics : public testing::TestWithParam<AluCase>
{
};

TEST_P(AluSemantics, MatchesReference)
{
    const AluCase &c = GetParam();
    EXPECT_EQ(evalRRR(c.op, c.a, c.b), c.expected)
        << opcodeName(c.op) << " a=" << c.a << " b=" << c.b;
}

// Static storage zero-fills the padding after `op`. gtest prints a
// parameter with no printer as its raw bytes, and the test's name is
// made from that dump, so padding left uninitialised would change the
// names from one build to the next.
const AluCase kAluCases[] = {
    AluCase{Opcode::Add, 5, 7, 12},
    AluCase{Opcode::Add, ~0ull, 1, 0},
    AluCase{Opcode::Sub, 5, 7, static_cast<uint64_t>(-2)},
    AluCase{Opcode::And, 0xff00, 0x0ff0, 0x0f00},
    AluCase{Opcode::Or, 0xff00, 0x0ff0, 0xfff0},
    AluCase{Opcode::Xor, 0xff00, 0x0ff0, 0xf0f0},
    AluCase{Opcode::Sll, 1, 12, 1 << 12},
    AluCase{Opcode::Sll, 1, 64 + 3, 8},      // shift amount mod 64
    AluCase{Opcode::Srl, 0x8000, 15, 1},
    AluCase{Opcode::Srl, ~0ull, 63, 1},
    AluCase{Opcode::Sra, static_cast<uint64_t>(-64), 3,
            static_cast<uint64_t>(-8)},
    AluCase{Opcode::Mul, 7, 6, 42},
    AluCase{Opcode::Div, 42, 6, 7},
    AluCase{Opcode::Div, static_cast<uint64_t>(-42), 6,
            static_cast<uint64_t>(-7)},
    AluCase{Opcode::Div, 5, 0, ~0ull},       // defined div-by-0
    AluCase{Opcode::Slt, static_cast<uint64_t>(-1), 0, 1},
    AluCase{Opcode::Slt, 0, static_cast<uint64_t>(-1), 0},
    AluCase{Opcode::Sltu, static_cast<uint64_t>(-1), 0, 0},
    AluCase{Opcode::Sltu, 0, 1, 1},
    AluCase{Opcode::Cmpeq, 9, 9, 1},
    AluCase{Opcode::Cmpeq, 9, 8, 0},
};

INSTANTIATE_TEST_SUITE_P(AllOps, AluSemantics,
                         testing::ValuesIn(kAluCases));

TEST(ExecutorTest, RegisterZeroAlwaysReadsZero)
{
    RegFile regs;
    regs.write(kRegZero, 1234);
    EXPECT_EQ(regs.read(kRegZero), 0u);
}

TEST(ExecutorTest, ImmediateOps)
{
    RegFile regs;
    MemoryImage mem;
    regs.write(1, 10);
    EXPECT_EQ(step(Inst{Opcode::Addi, 2, 1, kNoReg, -3}, 0, regs,
                   mem).value,
              7u);
    EXPECT_EQ(step(Inst{Opcode::Andi, 2, 1, kNoReg, 6}, 0, regs,
                   mem).value,
              2u);
    EXPECT_EQ(step(Inst{Opcode::Slti, 2, 1, kNoReg, 11}, 0, regs,
                   mem).value,
              1u);
    EXPECT_EQ(step(Inst{Opcode::Ldi, 2, kNoReg, kNoReg, -5}, 0, regs,
                   mem).value,
              static_cast<uint64_t>(-5));
}

TEST(ExecutorTest, LoadStoreRoundTrip)
{
    RegFile regs;
    MemoryImage mem;
    regs.write(1, 0x1000);
    regs.write(2, 0xdead);
    StepResult st = step(Inst{Opcode::St, kNoReg, 1, 2, 8}, 0, regs,
                         mem);
    EXPECT_TRUE(st.isStore);
    EXPECT_EQ(st.memAddr, 0x1008u);
    StepResult ld = step(Inst{Opcode::Ld, 3, 1, kNoReg, 8}, 0, regs,
                         mem);
    EXPECT_TRUE(ld.isLoad);
    EXPECT_EQ(ld.value, 0xdeadu);
    EXPECT_EQ(regs.read(3), 0xdeadu);
}

TEST(ExecutorTest, BranchTakenAndNotTaken)
{
    RegFile regs;
    MemoryImage mem;
    regs.write(1, 5);
    regs.write(2, 5);
    StepResult taken = step(Inst{Opcode::Beq, kNoReg, 1, 2, 42}, 10,
                            regs, mem);
    EXPECT_TRUE(taken.isControl);
    EXPECT_TRUE(taken.taken);
    EXPECT_EQ(taken.nextPc, 42u);
    regs.write(2, 6);
    StepResult fall = step(Inst{Opcode::Beq, kNoReg, 1, 2, 42}, 10,
                           regs, mem);
    EXPECT_FALSE(fall.taken);
    EXPECT_EQ(fall.nextPc, 11u);
}

TEST(ExecutorTest, SignedVsUnsignedBranches)
{
    RegFile regs;
    MemoryImage mem;
    regs.write(1, static_cast<uint64_t>(-1));
    regs.write(2, 1);
    EXPECT_TRUE(step(Inst{Opcode::Blt, kNoReg, 1, 2, 9}, 0, regs,
                     mem).taken);
    EXPECT_FALSE(step(Inst{Opcode::Bltu, kNoReg, 1, 2, 9}, 0, regs,
                      mem).taken);
    EXPECT_TRUE(step(Inst{Opcode::Bgeu, kNoReg, 1, 2, 9}, 0, regs,
                     mem).taken);
}

TEST(ExecutorTest, JalLinksAndJumps)
{
    RegFile regs;
    MemoryImage mem;
    StepResult res = step(Inst{Opcode::Jal, kRegLink, kNoReg, kNoReg,
                               100},
                          7, regs, mem);
    EXPECT_EQ(res.nextPc, 100u);
    EXPECT_EQ(regs.read(kRegLink), 8u);
}

TEST(ExecutorTest, JalrReadsTargetBeforeLinking)
{
    // jalr through the link register itself must use the OLD value.
    RegFile regs;
    MemoryImage mem;
    regs.write(kRegLink, 55);
    Inst inst{Opcode::Jalr, kRegLink, kRegLink, kNoReg, 0};
    StepResult res = step(inst, 7, regs, mem);
    EXPECT_EQ(res.nextPc, 55u);
    EXPECT_EQ(regs.read(kRegLink), 8u);
}

TEST(ExecutorTest, HaltStopsRun)
{
    ProgramBuilder b;
    b.li(R(1), 3);
    b.label("loop");
    b.addi(R(1), R(1), -1);
    b.bne(R(1), R(0), "loop");
    b.halt();
    Program p = b.build("t");
    RegFile regs;
    MemoryImage mem;
    uint64_t count = run(p, regs, mem, 1000);
    EXPECT_EQ(regs.read(1), 0u);
    EXPECT_EQ(count, 1 + 3 * 2 + 1u);
}

TEST(ExecutorTest, RunHonorsMaxInsts)
{
    ProgramBuilder b;
    b.label("forever");
    b.j("forever");
    Program p = b.build("t");
    RegFile regs;
    MemoryImage mem;
    EXPECT_EQ(run(p, regs, mem, 100), 100u);
}

TEST(ExecutorDeathTest, MicroOnlyOpcodePanics)
{
    RegFile regs;
    MemoryImage mem;
    Inst inst{Opcode::VpInst, 1, kNoReg, kNoReg, 0};
    EXPECT_DEATH(step(inst, 0, regs, mem), "micro-only");
}

} // namespace
