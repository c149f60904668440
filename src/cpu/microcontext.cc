#include "cpu/microcontext.hh"

// Microcontext is a plain state bundle; its behaviour lives in
// SsmtCore::dispatchMicrothreads(). This translation unit holds its
// checkpoint serialization.

#include <string>

#include "sim/snapshot.hh"

namespace ssmt
{
namespace cpu
{

void
Microcontext::save(sim::SnapshotWriter &w) const
{
    w.boolean("active", active);
    w.boolean("hasThread", thread != nullptr);
    if (thread) {
        // Serialized inline: the core's MicroRAM may have already
        // demoted or rebuilt this routine, so the context's shared
        // handle is the only owner of this exact version.
        w.beginObject("thread");
        thread->save(w);
        w.endObject();
    }
    w.beginObject("matcher");
    matcher.save(w);
    w.endObject();
    w.beginObject("regs");
    regs.save(w);
    w.endObject();
    w.u64Array("regReady", regReady.data(), regReady.size());
    w.u64("nextOp", nextOp);
    w.u64("opsInFlight", opsInFlight);
    w.boolean("aborted", aborted);
    w.u64Array("predictedValues", predictedValues);
    w.u64("spawnSeq", spawnSeq);
    w.u64("targetSeq", targetSeq);
    w.u64("spawnCycle", spawnCycle);
    w.u64("dispatchEligibleCycle", dispatchEligibleCycle);
}

void
Microcontext::restore(sim::SnapshotReader &r)
{
    active = r.boolean("active");
    if (r.boolean("hasThread")) {
        auto restored = std::make_shared<core::MicroThread>();
        r.enter("thread");
        restored->restore(r);
        r.leave();
        thread = std::move(restored);
    } else {
        thread.reset();
    }
    matcher = core::PathMatcher(thread.get());
    r.enter("matcher");
    matcher.restore(r);
    r.leave();
    r.enter("regs");
    regs.restore(r);
    r.leave();
    r.u64ArrayInto("regReady", regReady.data(), regReady.size());
    nextOp = r.u64("nextOp");
    opsInFlight = static_cast<uint32_t>(r.u64("opsInFlight"));
    aborted = r.boolean("aborted");
    predictedValues = r.u64Array("predictedValues");
    // Dispatch reads predictedValues[nextOp] at the routine's Vp/Ap
    // ops. A free context keeps its last occupant's vector.
    if (thread && predictedValues.size() != thread->ops.size())
        r.fail("predictedValues has " +
               std::to_string(predictedValues.size()) +
               " values for a routine of " +
               std::to_string(thread->ops.size()) + " ops");
    spawnSeq = r.u64("spawnSeq");
    targetSeq = r.u64("targetSeq");
    spawnCycle = r.u64("spawnCycle");
    dispatchEligibleCycle = r.u64("dispatchEligibleCycle");
}

static_assert(sim::SnapshotterLike<Microcontext>);
SSMT_SNAPSHOT_PIN_LAYOUT(Microcontext, 632);

} // namespace cpu
} // namespace ssmt
