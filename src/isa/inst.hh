/**
 * @file
 * Instruction representation for the ssmt ISA.
 *
 * Instructions are held decoded: an opcode, up to one destination
 * register, up to two source registers, and a 64-bit immediate. The
 * immediate doubles as the absolute instruction-index target for
 * direct branches/jumps. Program counters are instruction indices;
 * the byte address of an instruction (used by the I-cache and by the
 * Path_Id hash) is `pc * kInstBytes`.
 */

#ifndef SSMT_ISA_INST_HH
#define SSMT_ISA_INST_HH

#include <cstdint>
#include <string>

#include "isa/opcode.hh"

namespace ssmt
{
namespace isa
{

/** Architectural register index. Register 0 is hardwired to zero. */
using RegIndex = uint8_t;

constexpr int kNumRegs = 32;
constexpr RegIndex kRegZero = 0;
/** Conventional link register used by Jal/Jalr in the workloads. */
constexpr RegIndex kRegLink = 31;
/** Conventional stack pointer used by the workloads. */
constexpr RegIndex kRegSp = 30;

/** Sentinel meaning "no register". */
constexpr RegIndex kNoReg = 0xff;

/** Instruction size in bytes (for byte-addressed structures). */
constexpr uint64_t kInstBytes = 4;

/** A decoded instruction. */
struct Inst
{
    Opcode op = Opcode::Nop;
    RegIndex rd = kNoReg;       ///< destination register (or kNoReg)
    RegIndex rs1 = kNoReg;      ///< first source (or kNoReg)
    RegIndex rs2 = kNoReg;      ///< second source (or kNoReg)
    int64_t imm = 0;            ///< immediate / branch target / offset

    /** @return number of register source operands actually used. */
    int
    numSrcs() const
    {
        return (rs1 != kNoReg ? 1 : 0) + (rs2 != kNoReg ? 1 : 0);
    }

    /** @return the i-th source register (i in [0, numSrcs())). */
    RegIndex srcReg(int i) const { return i == 0 ? rs1 : rs2; }

    /** @return true if this instruction writes a register. */
    bool writesReg() const { return rd != kNoReg && rd != kRegZero; }

    bool isLoad() const { return op == Opcode::Ld; }
    bool isStore() const { return op == Opcode::St; }
    bool isCondBranch() const { return ::ssmt::isa::isCondBranch(op); }
    bool isControl() const { return ::ssmt::isa::isControl(op); }
    bool isIndirect() const { return ::ssmt::isa::isIndirect(op); }
    bool isHalt() const { return op == Opcode::Halt; }

    /**
     * A terminating branch in the paper's sense: a conditional or
     * indirect branch whose outcome the mechanism predicts.
     */
    bool
    isTerminatingBranch() const
    {
        return isCondBranch() || isIndirect();
    }

    /** @return human-readable disassembly. */
    std::string toString() const;

    bool operator==(const Inst &other) const = default;
};

} // namespace isa
} // namespace ssmt

#endif // SSMT_ISA_INST_HH

