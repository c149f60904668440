/**
 * @file
 * Functional execution semantics for the ssmt ISA.
 *
 * The same step() routine drives both the primary thread (inside the
 * execute-at-fetch timing core) and subordinate microthreads (which
 * run extracted slices over a private register file). Micro-only
 * instructions (Store_PCache, Vp_Inst, Ap_Inst) are *not* handled
 * here; the SSMT core intercepts them before calling step().
 */

#ifndef SSMT_ISA_EXECUTOR_HH
#define SSMT_ISA_EXECUTOR_HH

#include <array>
#include <cstdint>

#include "isa/inst.hh"
#include "isa/memory_image.hh"
#include "sim/logging.hh"

namespace ssmt
{
namespace isa
{

/** Architectural register file; register 0 reads as zero. */
class RegFile
{
  public:
    RegFile() { regs_.fill(0); }

    uint64_t
    read(RegIndex idx) const
    {
        return idx == kRegZero ? 0 : regs_[idx];
    }

    void
    write(RegIndex idx, uint64_t value)
    {
        if (idx != kRegZero)
            regs_[idx] = value;
    }

    bool operator==(const RegFile &other) const = default;

  private:
    std::array<uint64_t, kNumRegs> regs_;
};

/** Everything a single functional step produced. */
struct StepResult
{
    uint64_t nextPc = 0;
    bool regWrite = false;
    RegIndex rd = kNoReg;
    uint64_t value = 0;         ///< register result, if any
    bool isLoad = false;
    bool isStore = false;
    uint64_t memAddr = 0;       ///< effective address, if load/store
    bool isControl = false;
    bool taken = false;         ///< control flow changed pc
    uint64_t target = 0;        ///< destination of taken control flow
    bool halted = false;
};

/**
 * Functionally execute @p inst at @p pc against @p regs / @p mem.
 *
 * Header-inline, and force-inlined: both the primary thread (once
 * per fetched instruction) and every dispatched microthread op
 * funnel through this switch — tens of millions of calls per run —
 * and out-of-line the 56-byte StepResult round-trips through a
 * hidden sret buffer instead of staying in the caller's registers.
 *
 * @param inst instruction to execute (must not be micro-only)
 * @param pc   instruction index of @p inst
 * @param regs register file, updated in place
 * @param mem  data memory, updated in place for stores
 * @return what happened (result value, address, control flow)
 */
[[gnu::always_inline]] inline StepResult
step(const Inst &inst, uint64_t pc, RegFile &regs, MemoryImage &mem)
{
    StepResult res;
    res.nextPc = pc + 1;

    uint64_t a = inst.rs1 != kNoReg ? regs.read(inst.rs1) : 0;
    uint64_t b = inst.rs2 != kNoReg ? regs.read(inst.rs2) : 0;
    int64_t sa = static_cast<int64_t>(a);
    int64_t sb = static_cast<int64_t>(b);
    uint64_t imm = static_cast<uint64_t>(inst.imm);
    int64_t simm = inst.imm;

    auto write_reg = [&](uint64_t value) {
        res.regWrite = inst.rd != kNoReg && inst.rd != kRegZero;
        res.rd = inst.rd;
        res.value = value;
        regs.write(inst.rd, value);
    };
    auto branch = [&](bool taken) {
        res.isControl = true;
        res.taken = taken;
        res.target = imm;
        if (taken)
            res.nextPc = imm;
    };

    switch (inst.op) {
      case Opcode::Add:   write_reg(a + b); break;
      case Opcode::Sub:   write_reg(a - b); break;
      case Opcode::And:   write_reg(a & b); break;
      case Opcode::Or:    write_reg(a | b); break;
      case Opcode::Xor:   write_reg(a ^ b); break;
      case Opcode::Sll:   write_reg(a << (b & 63)); break;
      case Opcode::Srl:   write_reg(a >> (b & 63)); break;
      case Opcode::Sra:   write_reg(static_cast<uint64_t>(
                                        sa >> (b & 63))); break;
      case Opcode::Mul:   write_reg(a * b); break;
      case Opcode::Div:   write_reg(b == 0 ? ~0ull
                                           : static_cast<uint64_t>(
                                                 sa / sb)); break;
      case Opcode::Slt:   write_reg(sa < sb ? 1 : 0); break;
      case Opcode::Sltu:  write_reg(a < b ? 1 : 0); break;
      case Opcode::Cmpeq: write_reg(a == b ? 1 : 0); break;

      case Opcode::Addi:  write_reg(a + imm); break;
      case Opcode::Andi:  write_reg(a & imm); break;
      case Opcode::Ori:   write_reg(a | imm); break;
      case Opcode::Xori:  write_reg(a ^ imm); break;
      case Opcode::Slli:  write_reg(a << (imm & 63)); break;
      case Opcode::Srli:  write_reg(a >> (imm & 63)); break;
      case Opcode::Srai:  write_reg(static_cast<uint64_t>(
                                        sa >> (imm & 63))); break;
      case Opcode::Slti:  write_reg(sa < simm ? 1 : 0); break;
      case Opcode::Ldi:   write_reg(imm); break;

      case Opcode::Ld:
        res.isLoad = true;
        res.memAddr = a + imm;
        write_reg(mem.load(res.memAddr));
        break;
      case Opcode::St:
        res.isStore = true;
        res.memAddr = a + imm;
        mem.store(res.memAddr, b);
        break;

      case Opcode::Beq:   branch(a == b); break;
      case Opcode::Bne:   branch(a != b); break;
      case Opcode::Blt:   branch(sa < sb); break;
      case Opcode::Bge:   branch(sa >= sb); break;
      case Opcode::Bltu:  branch(a < b); break;
      case Opcode::Bgeu:  branch(a >= b); break;

      case Opcode::J:
        branch(true);
        break;
      case Opcode::Jal:
        write_reg(pc + 1);
        branch(true);
        break;
      case Opcode::Jr:
        res.isControl = true;
        res.taken = true;
        res.target = a;
        res.nextPc = a;
        break;
      case Opcode::Jalr:
        write_reg(pc + 1);
        res.isControl = true;
        res.taken = true;
        res.target = a;
        res.nextPc = a;
        break;

      case Opcode::Nop:
        break;
      case Opcode::Halt:
        res.halted = true;
        res.nextPc = pc;
        break;

      default:
        SSMT_PANIC(std::string("micro-only or unknown opcode in "
                               "functional step: ") +
                   opcodeName(inst.op));
    }
    return res;
}

/**
 * Run a whole program functionally (no timing) until Halt or
 * @p max_insts. Used by tests and by the offline path profiler.
 *
 * @return number of dynamic instructions executed.
 */
uint64_t run(const class Program &prog, RegFile &regs, MemoryImage &mem,
             uint64_t max_insts);

} // namespace isa
} // namespace ssmt

#endif // SSMT_ISA_EXECUTOR_HH
