#include "core/uthread_builder.hh"

#include <algorithm>
#include <array>
#include <bitset>

#include "isa/executor.hh"
#include "sim/logging.hh"

namespace ssmt
{
namespace core
{

namespace
{

/** Byte address of an instruction index, as hashed into Path_Ids. */
uint64_t
pathAddr(uint64_t pc)
{
    return pc * isa::kInstBytes;
}

bool
isPureAlu(const isa::Inst &inst)
{
    switch (isa::opClass(inst.op)) {
      case isa::OpClass::IntAlu:
      case isa::OpClass::IntMul:
      case isa::OpClass::IntDiv:
        return !inst.isLoad() && !inst.isStore();
      default:
        return false;
    }
}

} // namespace

UthreadBuilder::UthreadBuilder(const BuilderConfig &config)
    : config_(config)
{
    SSMT_ASSERT(config.mcbEntries > 0, "MCB must hold at least one op");
}

std::optional<MicroThread>
UthreadBuilder::build(const Prb &prb, PathId id, int n)
{
    stats_.requests++;
    SSMT_ASSERT(prb.size() > 0, "build from an empty PRB");
    uint32_t branch_pos = prb.size() - 1;
    const PrbEntry &branch = prb.at(branch_pos);
    SSMT_ASSERT(branch.inst.isTerminatingBranch(),
                "PRB youngest is not a terminating branch");

    // Locate the n taken branches prior to the terminating branch.
    // path_pos[0] is the most recent prior taken branch; path_pos
    // ends with the oldest (branch "n", which delimits the scope).
    std::vector<uint32_t> path_pos;
    path_pos.reserve(n);
    for (uint32_t pos = branch_pos; pos-- > 0 &&
             static_cast<int>(path_pos.size()) < n;) {
        const PrbEntry &entry = prb.at(pos);
        if (entry.inst.isControl() && entry.taken)
            path_pos.push_back(pos);
    }
    if (static_cast<int>(path_pos.size()) < n) {
        stats_.failScopeNotInPrb++;
        return std::nullopt;
    }

    // Verify the request against the PRB contents: recompute the
    // Path_Id (oldest taken branch first) and compare.
    PathId recomputed = 0;
    for (auto it = path_pos.rbegin(); it != path_pos.rend(); ++it)
        recomputed = hashStep(recomputed, pathAddr(prb.at(*it).pc));
    if (recomputed != id) {
        stats_.failPathMismatch++;
        return std::nullopt;
    }

    uint32_t scope_start = path_pos.back() + 1;

    // ---- Backward dataflow-slice extraction (Section 4.2.2) ----
    std::bitset<isa::kNumRegs> needed;
    auto need = [&](isa::RegIndex reg) {
        if (reg != isa::kNoReg && reg != isa::kRegZero)
            needed.set(reg);
    };
    // PRB positions, youngest first.
    std::vector<uint32_t> included;
    // 8B-aligned included load addrs.
    std::vector<uint64_t> load_words;

    included.push_back(branch_pos);
    need(branch.inst.rs1);
    need(branch.inst.rs2);

    bool mem_dep_stop = false;
    bool mcb_full_stop = false;
    uint32_t cursor = branch_pos;   // will step down before examining
    while (cursor > scope_start) {
        cursor--;
        const PrbEntry &entry = prb.at(cursor);
        if (entry.inst.isStore()) {
            uint64_t word = entry.memAddr & ~7ull;
            if (std::find(load_words.begin(), load_words.end(), word)
                    != load_words.end()) {
                // Termination rule 3: memory dependency encountered;
                // the store is not included (Section 4.2.2).
                mem_dep_stop = true;
                break;
            }
            continue;
        }
        if (!entry.inst.writesReg() || !needed.test(entry.inst.rd))
            continue;
        if (static_cast<int>(included.size()) >= config_.mcbEntries) {
            // Termination rule 1: the MCB filled up.
            mcb_full_stop = true;
            break;
        }
        included.push_back(cursor);
        needed.reset(entry.inst.rd);
        need(entry.inst.rs1);
        need(entry.inst.rs2);
        if (entry.inst.isLoad())
            load_words.push_back(entry.memAddr & ~7ull);
    }
    if (mem_dep_stop)
        stats_.stopsMemDep++;
    if (mcb_full_stop)
        stats_.stopsMcbFull++;

    // ---- Spawn-point selection (Sections 4.2.2 and 4.2.4) ----
    // The spawn point is the earliest in-scope instruction at which
    // every live-in register has already been produced and any
    // terminating memory dependency is architecturally satisfied.
    // Walks stopped early leave an unexamined region
    // [scope_start, cursor]; scan it for the youngest writer of a
    // still-needed register.
    uint32_t spawn_pos = scope_start;
    if (mem_dep_stop)
        spawn_pos = std::max(spawn_pos, cursor + 1);
    if (mem_dep_stop || mcb_full_stop) {
        for (uint32_t pos = cursor + 1; pos-- > scope_start;) {
            const PrbEntry &entry = prb.at(pos);
            if (entry.inst.writesReg() && needed.test(entry.inst.rd)) {
                spawn_pos = std::max(spawn_pos, pos + 1);
                break;
            }
        }
    }

    // ---- Assemble the routine, oldest op first ----
    MicroThread thread;
    thread.pathId = id;
    thread.pathN = n;
    thread.branchPc = branch.pc;
    thread.spawnPc = prb.at(spawn_pos).pc;
    thread.seqDelta = branch.seq - prb.at(spawn_pos).seq;

    std::sort(included.begin(), included.end());
    for (uint32_t pos : included) {
        const PrbEntry &entry = prb.at(pos);
        MicroOp op;
        op.origPc = entry.pc;
        op.prbPos = pos;
        op.vpConf = entry.vpConfident;
        op.apConf = entry.apConfident;
        // Instances of this static pc between spawn and the sliced
        // instance: the "number of predictions ahead" for pruning.
        uint64_t ahead = 0;
        for (uint32_t p = spawn_pos; p <= pos; p++)
            if (prb.at(p).pc == entry.pc)
                ahead++;
        op.ahead = std::max<uint64_t>(ahead, 1);

        if (pos == branch_pos) {
            // Convert the terminating branch into Store_PCache.
            op.inst.op = isa::Opcode::StPCache;
            op.inst.rd = isa::kNoReg;
            op.inst.rs1 = entry.inst.rs1;
            op.inst.rs2 = entry.inst.rs2;
            op.inst.imm = entry.inst.imm;
            op.branchOp = entry.inst.op;
        } else if (entry.inst.op == isa::Opcode::Jal ||
                   entry.inst.op == isa::Opcode::Jalr) {
            // A link-register producer: its value is the constant
            // return address; materialize it directly.
            op.inst.op = isa::Opcode::Ldi;
            op.inst.rd = entry.inst.rd;
            op.inst.rs1 = isa::kNoReg;
            op.inst.rs2 = isa::kNoReg;
            op.inst.imm = static_cast<int64_t>(entry.pc + 1);
        } else {
            op.inst = entry.inst;
        }
        thread.ops.push_back(op);
    }

    // ---- Abort-mechanism metadata (Section 4.3.2) ----
    // Path taken branches before the spawn point form the prefix
    // checked at spawn time; the rest must be matched in flight.
    for (auto it = path_pos.rbegin(); it != path_pos.rend(); ++it) {
        const PrbEntry &entry = prb.at(*it);
        ExpectedBranch expect{entry.pc, entry.target};
        if (*it < spawn_pos)
            thread.prefix.push_back(expect);
        else
            thread.expected.push_back(expect);
    }

    // ---- MCB optimizations ----
    optimize(thread);

    analyzeMicroThread(thread);
    if (const char *violation = validateMicroThread(thread))
        SSMT_PANIC(std::string("builder produced an invalid "
                               "routine: ") +
                   violation);
    stats_.built++;
    stats_.totalOps += thread.ops.size();
    stats_.totalChain += thread.longestChain;
    stats_.totalLiveIns += thread.liveIns.size();
    if (thread.pruned)
        stats_.prunedRoutines++;
    return thread;
}

void
UthreadBuilder::optimize(MicroThread &thread)
{
    if (config_.moveElimination || config_.constantPropagation) {
        propagateCopiesAndConstants(thread);
        eliminateDeadOps(thread);
    }
    if (config_.pruningEnabled) {
        prune(thread);
        eliminateDeadOps(thread);
    }
}

void
UthreadBuilder::propagateCopiesAndConstants(MicroThread &thread)
{
    // Forward pass over the dynamic slice. copy_of[r] names the
    // older register r currently mirrors; is_const/const_val track
    // known-constant registers. Any write invalidates facts about
    // the destination and facts *derived from* it.
    std::array<int, isa::kNumRegs> copy_of;
    copy_of.fill(-1);
    std::array<bool, isa::kNumRegs> is_const = {};
    std::array<uint64_t, isa::kNumRegs> const_val = {};
    is_const[isa::kRegZero] = true;
    const_val[isa::kRegZero] = 0;

    auto invalidate = [&](isa::RegIndex reg) {
        copy_of[reg] = -1;
        if (reg != isa::kRegZero)
            is_const[reg] = false;
        for (int r = 0; r < isa::kNumRegs; r++)
            if (copy_of[r] == reg)
                copy_of[r] = -1;
    };

    thread_local isa::MemoryImage scratch_mem;

    for (MicroOp &op : thread.ops) {
        isa::Inst &inst = op.inst;
        if (inst.op == isa::Opcode::VpInst ||
            inst.op == isa::Opcode::ApInst) {
            if (inst.writesReg())
                invalidate(inst.rd);
            continue;
        }

        // 1. Rewrite sources through the copy map.
        if (config_.moveElimination) {
            if (inst.rs1 != isa::kNoReg && copy_of[inst.rs1] >= 0)
                inst.rs1 = static_cast<isa::RegIndex>(copy_of[inst.rs1]);
            if (inst.rs2 != isa::kNoReg && copy_of[inst.rs2] >= 0)
                inst.rs2 = static_cast<isa::RegIndex>(copy_of[inst.rs2]);
        }

        // 2. Constant-fold pure ALU ops whose sources are all known.
        if (config_.constantPropagation && isPureAlu(inst) &&
            inst.op != isa::Opcode::Ldi && inst.writesReg()) {
            bool all_const = true;
            for (int s = 0; s < inst.numSrcs(); s++) {
                isa::RegIndex reg = inst.srcReg(s);
                if (!is_const[reg]) {
                    all_const = false;
                    break;
                }
            }
            if (all_const) {
                isa::RegFile scratch;
                if (inst.rs1 != isa::kNoReg)
                    scratch.write(inst.rs1, const_val[inst.rs1]);
                if (inst.rs2 != isa::kNoReg)
                    scratch.write(inst.rs2, const_val[inst.rs2]);
                isa::StepResult res =
                    isa::step(inst, 0, scratch, scratch_mem);
                inst.op = isa::Opcode::Ldi;
                inst.rs1 = isa::kNoReg;
                inst.rs2 = isa::kNoReg;
                inst.imm = static_cast<int64_t>(res.value);
            }
        }

        // 3. Detect register moves (after source rewriting).
        bool is_move = false;
        isa::RegIndex move_src = isa::kNoReg;
        switch (inst.op) {
          case isa::Opcode::Add:
          case isa::Opcode::Or:
          case isa::Opcode::Xor:
            // x op 0 == x for add/or/xor, in either operand position.
            if (inst.rs2 == isa::kRegZero) {
                is_move = true;
                move_src = inst.rs1;
            } else if (inst.rs1 == isa::kRegZero) {
                is_move = true;
                move_src = inst.rs2;
            }
            break;
          case isa::Opcode::Addi:
          case isa::Opcode::Ori:
          case isa::Opcode::Xori:
            if (inst.imm == 0) {
                is_move = true;
                move_src = inst.rs1;
            }
            break;
          default:
            break;
        }

        // 4. Update facts at the write.
        if (inst.writesReg()) {
            isa::RegIndex rd = inst.rd;
            invalidate(rd);
            if (inst.op == isa::Opcode::Ldi &&
                config_.constantPropagation) {
                is_const[rd] = true;
                const_val[rd] = static_cast<uint64_t>(inst.imm);
            } else if (is_move && config_.moveElimination &&
                       rd != move_src) {
                copy_of[rd] = move_src;
                if (is_const[move_src]) {
                    is_const[rd] = true;
                    const_val[rd] = const_val[move_src];
                }
            }
        }
    }
}

void
UthreadBuilder::prune(MicroThread &thread)
{
    // Pruning decisions use the confidence bits captured in the PRB
    // at retirement (Section 4.2.5) and already copied onto each op.
    for (size_t i = 0; i + 1 < thread.ops.size(); i++) {
        MicroOp &op = thread.ops[i];
        isa::Inst &inst = op.inst;
        if (inst.op == isa::Opcode::VpInst ||
            inst.op == isa::Opcode::ApInst ||
            inst.op == isa::Opcode::StPCache ||
            inst.op == isa::Opcode::Ldi || !inst.writesReg()) {
            continue;
        }
        if (op.vpConf) {
            // Value prune: the op and its sub-tree are replaced by a
            // Vp_Inst producing the output register value.
            inst.op = isa::Opcode::VpInst;
            inst.rs1 = isa::kNoReg;
            inst.rs2 = isa::kNoReg;
            inst.imm = 0;
            thread.pruned = true;
            stats_.prunedSubtrees++;
        } else if (inst.isLoad() && op.apConf) {
            // Address prune: keep the load, but let an Ap_Inst
            // provide its base register value, freeing the address
            // sub-tree (Section 4.2.5).
            MicroOp ap_op;
            ap_op.origPc = op.origPc;
            ap_op.ahead = op.ahead;
            ap_op.inst.op = isa::Opcode::ApInst;
            ap_op.inst.rd = inst.rs1;
            thread.ops.insert(thread.ops.begin() + i, ap_op);
            thread.pruned = true;
            stats_.prunedSubtrees++;
            i++;    // skip over the load we just displaced
        }
    }
}

void
UthreadBuilder::eliminateDeadOps(MicroThread &thread)
{
    SSMT_ASSERT(!thread.ops.empty() &&
                thread.ops.back().inst.op == isa::Opcode::StPCache,
                "routine must end in Store_PCache");
    std::bitset<isa::kNumRegs> needed;
    auto need = [&](isa::RegIndex reg) {
        if (reg != isa::kNoReg && reg != isa::kRegZero)
            needed.set(reg);
    };

    std::vector<MicroOp> kept;
    kept.reserve(thread.ops.size());
    for (size_t i = thread.ops.size(); i-- > 0;) {
        const MicroOp &op = thread.ops[i];
        const isa::Inst &inst = op.inst;
        bool keep;
        if (inst.op == isa::Opcode::StPCache) {
            keep = true;
        } else if (inst.writesReg() && needed.test(inst.rd)) {
            keep = true;
            needed.reset(inst.rd);
        } else {
            keep = false;
        }
        if (keep) {
            need(inst.rs1);
            need(inst.rs2);
            kept.push_back(op);
        }
    }
    std::reverse(kept.begin(), kept.end());
    thread.ops = std::move(kept);
}

} // namespace core
} // namespace ssmt
