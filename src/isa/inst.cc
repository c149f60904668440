#include "isa/inst.hh"

#include <array>
#include <cstdio>

namespace ssmt
{
namespace isa
{

const char *
opcodeName(Opcode op)
{
    static const std::array<const char *,
        static_cast<size_t>(Opcode::NumOpcodes)> names = {
        "add", "sub", "and", "or", "xor", "sll", "srl", "sra",
        "mul", "div", "slt", "sltu", "cmpeq",
        "addi", "andi", "ori", "xori", "slli", "srli", "srai",
        "slti", "ldi",
        "ld", "st",
        "beq", "bne", "blt", "bge", "bltu", "bgeu",
        "j", "jal", "jr", "jalr",
        "nop", "halt",
        "st_pcache", "vp_inst", "ap_inst",
    };
    auto idx = static_cast<size_t>(op);
    if (idx >= names.size())
        return "???";
    return names[idx];
}

std::string
Inst::toString() const
{
    char buf[96];
    const char *name = opcodeName(op);
    if (isCondBranch()) {
        std::snprintf(buf, sizeof(buf), "%-6s r%d, r%d, #%lld", name,
                      rs1, rs2, static_cast<long long>(imm));
    } else if (op == Opcode::Ld) {
        std::snprintf(buf, sizeof(buf), "%-6s r%d, %lld(r%d)", name,
                      rd, static_cast<long long>(imm), rs1);
    } else if (op == Opcode::St) {
        std::snprintf(buf, sizeof(buf), "%-6s r%d, %lld(r%d)", name,
                      rs2, static_cast<long long>(imm), rs1);
    } else if (op == Opcode::Ldi) {
        std::snprintf(buf, sizeof(buf), "%-6s r%d, %lld", name, rd,
                      static_cast<long long>(imm));
    } else if (op == Opcode::J) {
        std::snprintf(buf, sizeof(buf), "%-6s #%lld", name,
                      static_cast<long long>(imm));
    } else if (op == Opcode::Jal) {
        std::snprintf(buf, sizeof(buf), "%-6s r%d, #%lld", name, rd,
                      static_cast<long long>(imm));
    } else if (op == Opcode::Jr) {
        std::snprintf(buf, sizeof(buf), "%-6s r%d", name, rs1);
    } else if (op == Opcode::Jalr) {
        std::snprintf(buf, sizeof(buf), "%-6s r%d, r%d", name, rd, rs1);
    } else if (rd != kNoReg && rs1 != kNoReg && rs2 != kNoReg) {
        std::snprintf(buf, sizeof(buf), "%-6s r%d, r%d, r%d", name, rd,
                      rs1, rs2);
    } else if (rd != kNoReg && rs1 != kNoReg) {
        std::snprintf(buf, sizeof(buf), "%-6s r%d, r%d, %lld", name, rd,
                      rs1, static_cast<long long>(imm));
    } else {
        std::snprintf(buf, sizeof(buf), "%-6s", name);
    }
    return buf;
}

} // namespace isa
} // namespace ssmt

