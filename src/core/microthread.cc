#include "core/microthread.hh"

#include <array>
#include <cstdio>

#include "sim/logging.hh"

namespace ssmt
{
namespace core
{

const char *
validateMicroThread(const MicroThread &thread)
{
    if (thread.ops.empty())
        return "routine has no ops";
    int terminators = 0;
    for (size_t i = 0; i < thread.ops.size(); i++) {
        const MicroOp &op = thread.ops[i];
        const isa::Inst &inst = op.inst;
        switch (inst.op) {
          case isa::Opcode::StPCache:
            terminators++;
            if (i + 1 != thread.ops.size())
                return "Store_PCache is not the last op";
            switch (op.branchOp) {
              case isa::Opcode::Beq: case isa::Opcode::Bne:
              case isa::Opcode::Blt: case isa::Opcode::Bge:
              case isa::Opcode::Bltu: case isa::Opcode::Bgeu:
              case isa::Opcode::Jr: case isa::Opcode::Jalr:
                break;
              default:
                return "Store_PCache has a non-branch op";
            }
            break;
          case isa::Opcode::VpInst:
          case isa::Opcode::ApInst:
            if (!inst.writesReg())
                return "Vp/Ap_Inst without a destination";
            if (inst.rs1 != isa::kNoReg || inst.rs2 != isa::kNoReg)
                return "Vp/Ap_Inst with register sources";
            if (op.ahead < 1)
                return "Vp/Ap_Inst with ahead < 1";
            break;
          default:
            if (inst.isControl())
                return "control flow inside a routine";
            if (inst.isStore())
                return "store inside a routine";
            if (inst.isHalt())
                return "halt inside a routine";
            break;
        }
    }
    if (terminators != 1)
        return "routine lacks exactly one Store_PCache";
    if (static_cast<int>(thread.prefix.size() +
                         thread.expected.size()) != thread.pathN)
        return "prefix+expected does not cover the path";
    return nullptr;
}

RoutineOutcome
evalStorePCache(const MicroOp &op, const isa::RegFile &regs)
{
    uint64_t a = op.inst.rs1 != isa::kNoReg ? regs.read(op.inst.rs1)
                                            : 0;
    uint64_t b = op.inst.rs2 != isa::kNoReg ? regs.read(op.inst.rs2)
                                            : 0;
    int64_t sa = static_cast<int64_t>(a);
    int64_t sb = static_cast<int64_t>(b);
    RoutineOutcome out;
    out.taken = true;
    out.target = static_cast<uint64_t>(op.inst.imm);
    switch (op.branchOp) {
      case isa::Opcode::Beq:  out.taken = a == b; break;
      case isa::Opcode::Bne:  out.taken = a != b; break;
      case isa::Opcode::Blt:  out.taken = sa < sb; break;
      case isa::Opcode::Bge:  out.taken = sa >= sb; break;
      case isa::Opcode::Bltu: out.taken = a < b; break;
      case isa::Opcode::Bgeu: out.taken = a >= b; break;
      case isa::Opcode::Jr:
      case isa::Opcode::Jalr:
        out.target = a;
        break;
      default:
        SSMT_PANIC("Store_PCache with a non-branch op");
    }
    return out;
}

RoutineOutcome
executeMicroThread(const MicroThread &thread, isa::RegFile &regs,
                   isa::MemoryImage &mem,
                   std::span<const uint64_t> predicted_values)
{
    for (size_t i = 0; i < thread.ops.size(); i++) {
        const MicroOp &op = thread.ops[i];
        switch (op.inst.op) {
          case isa::Opcode::StPCache:
            return evalStorePCache(op, regs);
          case isa::Opcode::VpInst:
          case isa::Opcode::ApInst:
            SSMT_ASSERT(i < predicted_values.size(),
                        "pruned op without a captured prediction");
            regs.write(op.inst.rd, predicted_values[i]);
            break;
          default:
            isa::step(op.inst, op.origPc, regs, mem);
            break;
        }
    }
    SSMT_PANIC("routine ended without Store_PCache");
}

/** Rebuild the derived predPositions index from ops. */
static void
indexPredPositions(MicroThread &thread)
{
    thread.predPositions.clear();
    for (size_t i = 0; i < thread.ops.size(); i++) {
        isa::Opcode op = thread.ops[i].inst.op;
        if (op == isa::Opcode::VpInst || op == isa::Opcode::ApInst)
            thread.predPositions.push_back(
                static_cast<uint32_t>(i));
    }
}

void
analyzeMicroThread(MicroThread &thread)
{
    // lastWriter[r] = index into ops of the most recent writer of r,
    // or -1 if the value is live-in.
    std::array<int, isa::kNumRegs> last_writer;
    last_writer.fill(-1);
    std::array<bool, isa::kNumRegs> live_in = {};
    std::vector<int> chain(thread.ops.size(), 1);

    thread.speculatesOnMemory = false;
    int longest = 0;
    for (size_t i = 0; i < thread.ops.size(); i++) {
        const MicroOp &op = thread.ops[i];
        const isa::Inst &inst = op.inst;
        if (inst.isLoad())
            thread.speculatesOnMemory = true;
        int depth = 1;
        for (int s = 0; s < inst.numSrcs(); s++) {
            isa::RegIndex reg = inst.srcReg(s);
            if (reg == isa::kRegZero || reg == isa::kNoReg)
                continue;
            int writer = last_writer[reg];
            if (writer < 0)
                live_in[reg] = true;
            else if (chain[writer] + 1 > depth)
                depth = chain[writer] + 1;
        }
        chain[i] = depth;
        if (depth > longest)
            longest = depth;
        if (inst.writesReg())
            last_writer[inst.rd] = static_cast<int>(i);
    }

    thread.longestChain = longest;
    thread.liveIns.clear();
    for (int r = 0; r < isa::kNumRegs; r++)
        if (live_in[r])
            thread.liveIns.push_back(static_cast<isa::RegIndex>(r));
    indexPredPositions(thread);
}

std::string
MicroThread::toString() const
{
    std::string out;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "microthread path=%016llx n=%d branch_pc=%llu "
                  "spawn_pc=%llu seq_delta=%llu ops=%d chain=%d "
                  "live_ins=%zu%s\n",
                  static_cast<unsigned long long>(pathId), pathN,
                  static_cast<unsigned long long>(branchPc),
                  static_cast<unsigned long long>(spawnPc),
                  static_cast<unsigned long long>(seqDelta), size(),
                  longestChain, liveIns.size(),
                  pruned ? " [pruned]" : "");
    out += buf;
    for (const MicroOp &op : ops) {
        std::snprintf(buf, sizeof(buf), "    [pc %6llu] %s",
                      static_cast<unsigned long long>(op.origPc),
                      op.inst.toString().c_str());
        out += buf;
        if (op.inst.op == isa::Opcode::VpInst ||
            op.inst.op == isa::Opcode::ApInst) {
            std::snprintf(buf, sizeof(buf), "  (ahead=%llu)",
                          static_cast<unsigned long long>(op.ahead));
            out += buf;
        }
        if (op.inst.op == isa::Opcode::StPCache) {
            std::snprintf(buf, sizeof(buf), "  (branch op %s)",
                          isa::opcodeName(op.branchOp));
            out += buf;
        }
        out += '\n';
    }
    return out;
}

} // namespace core
} // namespace ssmt
