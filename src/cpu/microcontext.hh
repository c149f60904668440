/**
 * @file
 * A microcontext: the per-microthread state allocated at spawn time
 * (paper Section 4.3.1) — a private register file seeded from the
 * primary thread, a dispatch queue over the routine's ops, and the
 * path matcher that drives the abort mechanism.
 */

#ifndef SSMT_CPU_MICROCONTEXT_HH
#define SSMT_CPU_MICROCONTEXT_HH

#include <array>
#include <cstdint>
#include <memory>

#include "core/microthread.hh"
#include "core/spawn_unit.hh"
#include "isa/executor.hh"

namespace ssmt
{
namespace cpu
{

struct Microcontext
{
    bool active = false;
    /** Shared handle: keeps the routine alive across demotion or
     *  rebuild while this instance drains. */
    std::shared_ptr<const core::MicroThread> thread;
    core::PathMatcher matcher{nullptr};

    /** Private register file, copied from the primary thread. */
    isa::RegFile regs;
    /** Per-register value-availability cycle, copied from the
     *  primary scoreboard at spawn so microthread ops wait for their
     *  live-in producers. */
    std::array<uint64_t, isa::kNumRegs> regReady = {};

    size_t nextOp = 0;          ///< next routine op to dispatch
    uint32_t opsInFlight = 0;   ///< dispatched, not yet completed
    bool aborted = false;

    /** Vp_Inst/Ap_Inst predictions, captured at spawn time so the
     *  "instances ahead" distance stays anchored to the spawn point
     *  (the paper's instance reconciliation, Section 4.2.5).
     *  Indexed by routine op position; non-pruned ops hold 0. */
    std::vector<uint64_t> predictedValues;

    uint64_t spawnSeq = 0;      ///< Seq_Num of the spawn instance
    uint64_t targetSeq = 0;     ///< spawnSeq + routine seqDelta
    uint64_t spawnCycle = 0;
    /** Dispatch holds off until this cycle (fault injection's
     *  spawn-delay site; 0 = immediately eligible). */
    uint64_t dispatchEligibleCycle = 0;

    /** All ops dispatched (or the thread aborted) and none pending:
     *  the microcontext can be reclaimed. */
    bool
    drained() const
    {
        return opsInFlight == 0 &&
               (aborted || (thread && nextOp >= thread->ops.size()));
    }

    void
    reset()
    {
        active = false;
        thread.reset();
        nextOp = 0;
        opsInFlight = 0;
        aborted = false;
        dispatchEligibleCycle = 0;
    }
};

} // namespace cpu
} // namespace ssmt

#endif // SSMT_CPU_MICROCONTEXT_HH

