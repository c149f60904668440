/**
 * @file
 * Unit tests for the ProgramBuilder mini-assembler and the Program
 * values it builds.
 */

#include <gtest/gtest.h>

#include <utility>

#include "isa/builder.hh"
#include "isa/memory_image.hh"

namespace
{

using namespace ssmt::isa;

TEST(BuilderTest, ForwardLabelResolved)
{
    ProgramBuilder b;
    b.beq(R(1), R(0), "target");
    b.nop();
    b.label("target");
    b.halt();
    Program p = b.build("t");
    EXPECT_EQ(p.inst(0).imm, 2);
}

TEST(BuilderTest, BackwardLabelResolved)
{
    ProgramBuilder b;
    b.label("top");
    b.nop();
    b.bne(R(1), R(0), "top");
    b.halt();
    Program p = b.build("t");
    EXPECT_EQ(p.inst(1).imm, 0);
}

TEST(BuilderTest, HereTracksNextPc)
{
    ProgramBuilder b;
    EXPECT_EQ(b.here(), 0u);
    b.nop();
    b.nop();
    EXPECT_EQ(b.here(), 2u);
}

TEST(BuilderTest, LabelPcAfterBinding)
{
    ProgramBuilder b;
    b.nop();
    b.label("mid");
    b.nop();
    EXPECT_EQ(b.labelPc("mid"), 1u);
}

TEST(BuilderTest, JalUsesLinkRegister)
{
    ProgramBuilder b;
    b.jal("fn");
    b.halt();
    b.label("fn");
    b.ret();
    Program p = b.build("t");
    EXPECT_EQ(p.inst(0).op, Opcode::Jal);
    EXPECT_EQ(p.inst(0).rd, kRegLink);
    EXPECT_EQ(p.inst(0).imm, 2);
    EXPECT_EQ(p.inst(2).op, Opcode::Jr);
    EXPECT_EQ(p.inst(2).rs1, kRegLink);
}

TEST(BuilderTest, MvIsAddWithZero)
{
    ProgramBuilder b;
    b.mv(R(1), R(2));
    b.halt();
    Program p = b.build("t");
    EXPECT_EQ(p.inst(0).op, Opcode::Add);
    EXPECT_EQ(p.inst(0).rs2, kRegZero);
}

TEST(BuilderTest, StoreOperandLayout)
{
    ProgramBuilder b;
    b.st(R(5), R(6), 24);
    b.halt();
    Program p = b.build("t");
    EXPECT_EQ(p.inst(0).rs1, R(6));     // base
    EXPECT_EQ(p.inst(0).rs2, R(5));     // data
    EXPECT_EQ(p.inst(0).imm, 24);
    EXPECT_EQ(p.inst(0).rd, kNoReg);
}

TEST(BuilderTest, DataImageLoaded)
{
    ProgramBuilder b;
    b.initWord(0x1000, 42);
    b.initWords(0x2000, {1, 2, 3});
    b.halt();
    Program p = b.build("t");
    MemoryImage mem;
    p.loadData(mem);
    EXPECT_EQ(mem.load(0x1000), 42u);
    EXPECT_EQ(mem.load(0x2000), 1u);
    EXPECT_EQ(mem.load(0x2008), 2u);
    EXPECT_EQ(mem.load(0x2010), 3u);
}

TEST(BuilderTest, ReserveDataLeavesTheImageUnchanged)
{
    // Words written one by one into a reserved image match the same
    // words laid out by initWords, in the same order.
    ProgramBuilder reserved;
    reserved.initWord(0x1000, 42);
    reserved.reserveData(3);
    for (uint64_t i = 0; i < 3; i++)
        reserved.initWord(0x2000 + 8 * i, i + 1);
    reserved.halt();
    Program p = reserved.build("t");

    ProgramBuilder staged;
    staged.initWord(0x1000, 42);
    staged.initWords(0x2000, {1, 2, 3});
    staged.halt();
    Program q = staged.build("t");

    ASSERT_EQ(p.data().size(), q.data().size());
    for (size_t i = 0; i < p.data().size(); i++) {
        EXPECT_EQ(p.data()[i].addr, q.data()[i].addr) << i;
        EXPECT_EQ(p.data()[i].value, q.data()[i].value) << i;
    }
}

TEST(BuilderTest, DataLabelFixupStoresPc)
{
    ProgramBuilder b;
    b.initWordLabel(0x3000, "handler");
    b.nop();
    b.nop();
    b.label("handler");
    b.halt();
    Program p = b.build("t");
    MemoryImage mem;
    p.loadData(mem);
    EXPECT_EQ(mem.load(0x3000), 2u);
}

TEST(ProgramTest, DefaultConstructedIsEmpty)
{
    Program p;
    EXPECT_EQ(p.name(), "");
    EXPECT_EQ(p.size(), 0u);
    EXPECT_TRUE(p.code().empty());
    EXPECT_TRUE(p.data().empty());
    EXPECT_EQ(p.disassemble(), "");
}

TEST(ProgramTest, CopiesShareOneBody)
{
    ProgramBuilder b;
    b.initWords(0x1000, {5, 6, 7});
    b.li(R(1), 3);
    b.halt();
    Program p = b.build("shared");

    Program copy = p;
    Program assigned;
    assigned = p;
    for (const Program *q : {&copy, &assigned}) {
        EXPECT_EQ(q->name(), "shared");
        EXPECT_EQ(q->code().data(), p.code().data());
        EXPECT_EQ(q->data().data(), p.data().data());
    }

    // A copy outlives its source, and moving from a Program leaves
    // the source readable.
    Program survivor = std::move(copy);
    p = Program();
    EXPECT_EQ(copy.name(), "shared");
    EXPECT_EQ(survivor.size(), 2u);
    ASSERT_EQ(survivor.data().size(), 3u);
    EXPECT_EQ(survivor.data()[2].value, 7u);
    EXPECT_TRUE(p.code().empty());
}

TEST(BuilderTest, BuildConsumesTheBuilder)
{
    ProgramBuilder b;
    b.label("top");
    b.initWord(0x1000, 1);
    b.j("top");
    Program p = b.build("t");
    EXPECT_EQ(p.size(), 1u);
    EXPECT_EQ(p.data().size(), 1u);
    EXPECT_EQ(b.here(), 0u);
    b.halt();
    EXPECT_EQ(b.build("again").size(), 1u);
}

TEST(BuilderDeathTest, UnboundLabelIsFatal)
{
    ProgramBuilder b;
    b.j("nowhere");
    EXPECT_EXIT(b.build("t"), testing::ExitedWithCode(1), "nowhere");
}

TEST(BuilderDeathTest, DuplicateLabelPanics)
{
    ProgramBuilder b;
    b.label("x");
    b.nop();
    EXPECT_DEATH(b.label("x"), "duplicate label");
}

TEST(BuilderTest, DisassembleListsAllInstructions)
{
    ProgramBuilder b;
    b.li(R(1), 7);
    b.addi(R(1), R(1), 1);
    b.halt();
    Program p = b.build("t");
    std::string listing = p.disassemble();
    EXPECT_NE(listing.find("ldi"), std::string::npos);
    EXPECT_NE(listing.find("addi"), std::string::npos);
    EXPECT_NE(listing.find("halt"), std::string::npos);
}

} // namespace
