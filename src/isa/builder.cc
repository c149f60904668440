#include "isa/builder.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ssmt
{
namespace isa
{

ProgramBuilder &
ProgramBuilder::label(const std::string &name)
{
    SSMT_ASSERT(!labels_.contains(name),
                "duplicate label: " + name);
    labels_[name] = code_.size();
    return *this;
}

uint64_t
ProgramBuilder::labelPc(const std::string &name) const
{
    auto it = labels_.find(name);
    SSMT_ASSERT(it != labels_.end(), "unknown label: " + name);
    return it->second;
}

ProgramBuilder &
ProgramBuilder::emit(Opcode op, RegIndex rd, RegIndex rs1, RegIndex rs2,
                     int64_t imm)
{
    code_.push_back(Inst{op, rd, rs1, rs2, imm});
    return *this;
}

ProgramBuilder &
ProgramBuilder::emitBranch(Opcode op, RegIndex rs1, RegIndex rs2,
                           const std::string &label)
{
    fixups_.push_back(Fixup{code_.size(), label});
    return emit(op, kNoReg, rs1, rs2, 0);
}

#define SSMT_RRR(name, op) \
    ProgramBuilder & \
    ProgramBuilder::name(RegIndex rd, RegIndex rs1, RegIndex rs2) \
    { \
        return emit(Opcode::op, rd, rs1, rs2, 0); \
    }

SSMT_RRR(add, Add)
SSMT_RRR(sub, Sub)
SSMT_RRR(and_, And)
SSMT_RRR(or_, Or)
SSMT_RRR(xor_, Xor)
SSMT_RRR(sll, Sll)
SSMT_RRR(srl, Srl)
SSMT_RRR(sra, Sra)
SSMT_RRR(mul, Mul)
SSMT_RRR(div, Div)
SSMT_RRR(slt, Slt)
SSMT_RRR(sltu, Sltu)
SSMT_RRR(cmpeq, Cmpeq)

#undef SSMT_RRR

#define SSMT_RRI(name, op) \
    ProgramBuilder & \
    ProgramBuilder::name(RegIndex rd, RegIndex rs1, int64_t imm) \
    { \
        return emit(Opcode::op, rd, rs1, kNoReg, imm); \
    }

SSMT_RRI(addi, Addi)
SSMT_RRI(andi, Andi)
SSMT_RRI(ori, Ori)
SSMT_RRI(xori, Xori)
SSMT_RRI(slli, Slli)
SSMT_RRI(srli, Srli)
SSMT_RRI(srai, Srai)
SSMT_RRI(slti, Slti)

#undef SSMT_RRI

ProgramBuilder &
ProgramBuilder::li(RegIndex rd, int64_t imm)
{
    return emit(Opcode::Ldi, rd, kNoReg, kNoReg, imm);
}

ProgramBuilder &
ProgramBuilder::mv(RegIndex rd, RegIndex rs)
{
    return emit(Opcode::Add, rd, rs, kRegZero, 0);
}

ProgramBuilder &
ProgramBuilder::ld(RegIndex rd, RegIndex base, int64_t offset)
{
    return emit(Opcode::Ld, rd, base, kNoReg, offset);
}

ProgramBuilder &
ProgramBuilder::st(RegIndex src, RegIndex base, int64_t offset)
{
    return emit(Opcode::St, kNoReg, base, src, offset);
}

#define SSMT_BR(name, op) \
    ProgramBuilder & \
    ProgramBuilder::name(RegIndex a, RegIndex b, const std::string &l) \
    { \
        return emitBranch(Opcode::op, a, b, l); \
    }

SSMT_BR(beq, Beq)
SSMT_BR(bne, Bne)
SSMT_BR(blt, Blt)
SSMT_BR(bge, Bge)
SSMT_BR(bltu, Bltu)
SSMT_BR(bgeu, Bgeu)

#undef SSMT_BR

ProgramBuilder &
ProgramBuilder::j(const std::string &l)
{
    fixups_.push_back(Fixup{code_.size(), l});
    return emit(Opcode::J, kNoReg, kNoReg, kNoReg, 0);
}

ProgramBuilder &
ProgramBuilder::jal(const std::string &l)
{
    fixups_.push_back(Fixup{code_.size(), l});
    return emit(Opcode::Jal, kRegLink, kNoReg, kNoReg, 0);
}

ProgramBuilder &
ProgramBuilder::jr(RegIndex rs)
{
    return emit(Opcode::Jr, kNoReg, rs, kNoReg, 0);
}

ProgramBuilder &
ProgramBuilder::jalr(RegIndex rs)
{
    return emit(Opcode::Jalr, kRegLink, rs, kNoReg, 0);
}

ProgramBuilder &
ProgramBuilder::ret()
{
    return jr(kRegLink);
}

ProgramBuilder &
ProgramBuilder::nop()
{
    return emit(Opcode::Nop, kNoReg, kNoReg, kNoReg, 0);
}

ProgramBuilder &
ProgramBuilder::halt()
{
    return emit(Opcode::Halt, kNoReg, kNoReg, kNoReg, 0);
}

ProgramBuilder &
ProgramBuilder::raw(const Inst &inst)
{
    code_.push_back(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::reserveData(size_t words)
{
    data_.reserve(data_.size() + words);
    return *this;
}

ProgramBuilder &
ProgramBuilder::initWord(uint64_t addr, uint64_t value)
{
    data_.push_back(DataInit{addr, value});
    return *this;
}

ProgramBuilder &
ProgramBuilder::initWords(uint64_t addr,
                          const std::vector<uint64_t> &values)
{
    // Grow geometrically: an exact reserve would reallocate on every
    // call of a builder that lays out many small regions.
    const size_t need = data_.size() + values.size();
    if (need > data_.capacity())
        data_.reserve(std::max(need, 2 * data_.capacity()));
    for (size_t i = 0; i < values.size(); i++)
        data_.push_back(DataInit{addr + 8 * i, values[i]});
    return *this;
}

ProgramBuilder &
ProgramBuilder::initWordLabel(uint64_t addr, const std::string &label)
{
    dataFixups_.push_back(DataFixup{data_.size(), label});
    data_.push_back(DataInit{addr, 0});
    return *this;
}

Program
ProgramBuilder::build(std::string name)
{
    for (const Fixup &fixup : fixups_) {
        auto it = labels_.find(fixup.label);
        if (it == labels_.end())
            SSMT_PANIC("unbound label '" + fixup.label +
                       "' in program " + name);
        code_[fixup.pc].imm = static_cast<int64_t>(it->second);
    }
    fixups_.clear();
    for (const DataFixup &fixup : dataFixups_) {
        auto it = labels_.find(fixup.label);
        if (it == labels_.end())
            SSMT_PANIC("unbound data label '" + fixup.label +
                       "' in program " + name);
        data_[fixup.dataIndex].value = it->second;
    }
    dataFixups_.clear();
    labels_.clear();
    return Program(std::move(name), std::move(code_), std::move(data_));
}

} // namespace isa
} // namespace ssmt
