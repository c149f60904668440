/**
 * @file
 * The microthread routine produced by the Microthread Builder: a
 * short program-order sequence of micro-operations that pre-computes
 * the outcome of one difficult path's terminating branch and
 * deposits it into the Prediction Cache via Store_PCache.
 */

#ifndef SSMT_CORE_MICROTHREAD_HH
#define SSMT_CORE_MICROTHREAD_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/path_id.hh"
#include "isa/executor.hh"
#include "isa/inst.hh"

namespace ssmt
{
namespace core
{

/** One microthread operation. */
struct MicroOp
{
    isa::Inst inst;         ///< semantics (may be Vp/Ap/StPCache)
    uint64_t origPc = 0;    ///< primary-thread pc it derives from
    /** For StPCache: the original branch opcode whose condition the
     *  sources encode (Beq/Bne/.../Jr). */
    isa::Opcode branchOp = isa::Opcode::Nop;
    /** For VpInst/ApInst: how many instances ahead of the last
     *  retired instance to predict (paper Section 4.2.5). */
    uint64_t ahead = 1;

    // Builder-internal metadata (populated during extraction, not
    // meaningful to the executing core).
    uint32_t prbPos = 0;    ///< PRB position the op came from
    bool vpConf = false;    ///< value predictor confident at build
    bool apConf = false;    ///< address predictor confident at build
};

/** A taken branch the primary thread must execute for the path to
 *  still be live (used by the abort mechanism, Section 4.3.2). */
struct ExpectedBranch
{
    uint64_t pc = 0;        ///< instruction index of the taken branch
    uint64_t target = 0;    ///< its destination

    bool operator==(const ExpectedBranch &) const = default;
};

/** A complete difficult-path prediction microthread. */
struct MicroThread
{
    PathId pathId = 0;
    int pathN = 0;              ///< n used when the path was formed
    uint64_t branchPc = 0;      ///< terminating branch pc
    uint64_t spawnPc = 0;       ///< spawn-point pc (Section 4.2.2)
    /** Dynamic instruction separation between the spawn-point
     *  instance and the terminating branch instance; Store_PCache
     *  computes the target Seq_Num as spawn Seq_Num + seqDelta. */
    uint64_t seqDelta = 0;

    /** Taken branches of the path that precede the spawn point;
     *  checked against the front-end path history at spawn time
     *  (mismatches abort before a microcontext is allocated). */
    std::vector<ExpectedBranch> prefix;
    /** Taken branches expected after the spawn point, in order; a
     *  deviation aborts the running microthread. */
    std::vector<ExpectedBranch> expected;

    /** Operations in program order; the last is always StPCache. */
    std::vector<MicroOp> ops;

    /** Live-in architectural registers (read before written). */
    std::vector<isa::RegIndex> liveIns;

    /** Longest dataflow dependency chain, in ops (Figure 8). */
    int longestChain = 0;
    /** True if any op is a load (memory-dependence speculation may
     *  be violated; enables rebuild-on-violation). */
    bool speculatesOnMemory = false;
    /** True if pruning replaced at least one sub-tree. */
    bool pruned = false;

    /** Indices into ops of the Vp_Inst/Ap_Inst placeholders, so the
     *  spawn path can seed its prediction captures without scanning
     *  every op of the routine. Derived state: analyzeMicroThread()
     *  builds it. */
    std::vector<uint32_t> predPositions;

    int size() const { return static_cast<int>(ops.size()); }

    /** Multi-line listing for debugging/examples. */
    std::string toString() const;
};

/**
 * Recompute liveIns and longestChain from ops (used by the builder
 * after each optimization pass; exposed for tests).
 */
void analyzeMicroThread(MicroThread &thread);

/**
 * Structural invariants every routine must satisfy (checked by the
 * builder post-build; exposed for property tests):
 *  - non-empty, exactly one Store_PCache, in last position, with a
 *    valid branch op;
 *  - no control-flow or store ops (slices are side-effect-free);
 *  - Vp_Inst/Ap_Inst have a destination, no sources, ahead >= 1;
 *  - expected/prefix lists are consistent with pathN.
 *
 * @return nullptr if valid, else a static description of the first
 *         violated invariant.
 */
const char *validateMicroThread(const MicroThread &thread);

/** The pre-computed branch outcome a routine produced. */
struct RoutineOutcome
{
    bool taken = false;
    uint64_t target = 0;
};

/**
 * Functionally execute a routine: the reference semantics of a
 * microcontext, shared by the timing core's dispatch loop and by
 * tests. @p regs is the spawn-time register snapshot (mutated);
 * loads read @p mem; pruned ops read @p predicted_values (indexed
 * by op position, as captured at spawn).
 *
 * @return the outcome deposited by the trailing Store_PCache.
 */
RoutineOutcome
executeMicroThread(const MicroThread &thread, isa::RegFile &regs,
                   isa::MemoryImage &mem,
                   std::span<const uint64_t> predicted_values);

/**
 * Evaluate a Store_PCache op against a register file: the branch
 * condition/target semantics shared by every execution engine.
 */
RoutineOutcome evalStorePCache(const MicroOp &op,
                               const isa::RegFile &regs);

} // namespace core
} // namespace ssmt

#endif // SSMT_CORE_MICROTHREAD_HH

