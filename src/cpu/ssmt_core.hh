/**
 * @file
 * SsmtCore: the cycle-level model of the paper's Table 3 machine
 * plus the difficult-path microthreading mechanism.
 *
 * Timing model (DESIGN.md Section 4): execute-at-fetch with dataflow
 * scheduling. Each fetched instruction is functionally executed
 * immediately; its completion cycle is computed from operand
 * readiness, shared functional-unit availability and memory
 * latencies. Mispredictions become front-end bubbles from the
 * mispredicted branch until resolution plus the redirect penalty.
 * Subordinate microthreads dispatch into leftover front-end slots,
 * occupy window entries and contend for the same FUs; their
 * Store_PCache completions feed the Prediction Cache, enabling
 * early-prediction overrides and late-prediction early recoveries.
 */

#ifndef SSMT_CPU_SSMT_CORE_HH
#define SSMT_CPU_SSMT_CORE_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "bpred/frontend_predictor.hh"
#include "core/microram.hh"
#include "core/path_cache.hh"
#include "core/path_tracker.hh"
#include "core/prb.hh"
#include "core/prediction_cache.hh"
#include "core/uthread_builder.hh"
#include "cpu/fu_pool.hh"
#include "cpu/microcontext.hh"
#include "cpu/trace.hh"
#include "isa/executor.hh"
#include "isa/program.hh"
#include "memory/hierarchy.hh"
#include "sim/event_queue.hh"
#include "sim/faultinject.hh"
#include "sim/flat_hash.hh"
#include "sim/invariants.hh"
#include "sim/machine_config.hh"
#include "sim/metrics.hh"
#include "sim/stats.hh"
#include "vpred/value_predictor.hh"

namespace ssmt
{
namespace cpu
{

class SsmtCore
{
  public:
    SsmtCore(const isa::Program &prog,
             const sim::MachineConfig &config);

    /** Run to Halt (or the configured limits); @return final stats. */
    const sim::Stats &run();

    /** Advance one cycle (exposed for pipeline tests). */
    void tick();

    /**
     * Skip quiescent cycles: advance the clock to just before the
     * next cycle at which any tick() phase can do work (completion
     * events, builder readiness, fetch resume, dispatch eligibility,
     * sampler due points), applying exactly the per-cycle accounting
     * the skipped ticks would have performed (front-end bubbles,
     * dispatch round-robin rotation). The next tick() lands at most
     * at @p stop, so external tick loops keep their cycle-precise
     * stopping points. A no-op when fault injection is armed — that's
     * a per-cycle dice roll.
     *
     * Calling this between ticks is an identity on the architectural
     * trajectory: every golden counter and series sample stays
     * byte-for-byte what a tick-by-tick run produces, and so do the
     * counters, gauges and registers at any stop cycle.
     */
    void fastForward(uint64_t stop);

    /** True when the program halted and the window drained. */
    bool done() const;

    /** Finalize the stats (idempotent) and return them; the external
     *  tick-loop equivalent of run()'s epilogue. */
    const sim::Stats &
    finish()
    {
        finalizeStats();
        return stats_;
    }

    const sim::Stats &stats() const { return stats_; }
    uint64_t cycle() const { return cycle_; }
    uint64_t retiredInsts() const { return stats_.retiredInsts; }
    const isa::RegFile &archRegs() const { return regs_; }
    const isa::MemoryImage &memory() const { return mem_; }

    // Introspection for tests and examples.
    const core::PathCache &pathCache() const { return pathCache_; }
    const core::MicroRam &microRam() const { return microRam_; }
    const core::PredictionCache &predictionCache() const
    {
        return pcache_;
    }
    const core::UthreadBuilder &builder() const { return builder_; }
    const core::Prb &prb() const { return prb_; }
    const memory::Hierarchy &hierarchy() const { return hier_; }
    const bpred::FrontEndPredictor &frontend() const { return fep_; }
    const PipelineTrace &trace() const { return trace_; }

    /** The interval time-series captured when cfg.sampleInterval > 0
     *  (empty, interval 0 otherwise). Stable after run(). */
    const sim::MetricsSeries &series() const
    {
        return sampler_.series();
    }

    /** Current fill levels of the bounded structures (the sampling
     *  hook; also useful for tests and examples). */
    sim::OccupancyGauges currentGauges() const;

    /** What the configured fault plan actually did (see
     *  sim/faultinject.hh; all zeros when injection is disabled). */
    const sim::FaultStats &faultStats() const
    {
        return faults_.stats();
    }

    /**
     * Occupancy-bound self-check over the core's structures (PRB,
     * Prediction Cache, MicroRAM, Path Cache, window,
     * microcontexts). Valid at any cycle; sim::runProgramChecked runs it
     * at end-of-run alongside StatsChecker.
     */
    std::vector<sim::InvariantViolation>
    checkStructuralInvariants() const;

  private:
    /** One in-flight primary-thread instruction. */
    struct RobEntry
    {
        uint64_t seq;
        uint64_t pc;
        isa::Inst inst;
        uint64_t completeCycle;
        uint64_t value;
        uint64_t memAddr;
        bool taken;
        uint64_t target;
        uint64_t srcSeq[2];
        bool isTerm;            ///< terminating branch
    };

    /** Authoritative state of an in-flight terminating branch. */
    struct InFlightBranch
    {
        core::PathId pathId;
        uint64_t resolveCycle;
        bool actualTaken;
        uint64_t actualTarget;
        bool usedTaken;
        uint64_t usedTarget;
        bool hwCorrect;
        bool usedCorrectAtFetch;
        bool microPredWrongConsumed = false;
    };

    /**
     * The in-flight terminating branches, indexed directly by
     * sequence number. Seq_Nums are dense (one per fetched primary
     * instruction) and a branch lives here only while it sits in the
     * window, so live seqs span less than windowSize — a power-of-two
     * ring over seq turns the per-branch insert/find/take the fetch
     * and retire paths pay into one masked array index, no hashing.
     */
    class InFlightRing
    {
      public:
        /** Size for @p window in-flight instructions (2x slack so a
         *  wrapped slot is provably free before its seq returns). */
        void
        reserve(size_t window)
        {
            size_t cap = 16;
            while (cap < 2 * window)
                cap <<= 1;
            mask_ = cap - 1;
            slots_.assign(cap, Slot{});
            live_ = 0;
        }

        void
        insert(uint64_t seq, const InFlightBranch &br)
        {
            Slot &slot = slots_[seq & mask_];
            SSMT_ASSERT(!slot.live,
                        "in-flight branch ring collision: live seq "
                        "span exceeds the window bound");
            slot.live = true;
            slot.seq = seq;
            slot.br = br;
            live_++;
        }

        InFlightBranch *
        find(uint64_t seq)
        {
            Slot &slot = slots_[seq & mask_];
            return slot.live && slot.seq == seq ? &slot.br : nullptr;
        }

        const InFlightBranch *
        find(uint64_t seq) const
        {
            const Slot &slot = slots_[seq & mask_];
            return slot.live && slot.seq == seq ? &slot.br : nullptr;
        }

        /** Remove the entry for @p seq into @p out. @return false if
         *  absent. */
        bool
        take(uint64_t seq, InFlightBranch &out)
        {
            Slot &slot = slots_[seq & mask_];
            if (!slot.live || slot.seq != seq)
                return false;
            out = slot.br;
            slot.live = false;
            live_--;
            return true;
        }

        size_t size() const { return live_; }

      private:
        struct Slot
        {
            uint64_t seq = 0;
            InFlightBranch br = {};
            bool live = false;
        };

        std::vector<Slot> slots_;
        size_t mask_ = 0;
        size_t live_ = 0;
    };

    /** A scheduled microthread-op completion. */
    // Members are zero-initialized: dispatch fills the prediction
    // fields only for Store_PCache completions, so every other event
    // carries zeros there rather than stack leftovers.
    struct MicroCompletion
    {
        uint64_t cycle = 0;
        uint32_t ctx = 0;
        bool isStPCache = false;
        core::PathId pathId = 0;
        uint64_t targetSeq = 0;
        bool taken = false;
        uint64_t target = 0;
    };

    // ---- Construction-order state ----
    /** Shares the caller's immutable program body (a reference-count
     *  bump, not an image copy), so callers may pass temporaries. */
    isa::Program prog_;
    sim::MachineConfig cfg_;
    isa::MemoryImage mem_;
    isa::RegFile regs_;
    memory::Hierarchy hier_;
    bpred::FrontEndPredictor fep_;
    /** Value and address predictors (Section 4.2.5). Only pruning
     *  reads what they learn, so they exist and train only when
     *  builder.pruningEnabled is set. */
    std::optional<vpred::ValuePredictor> vpred_;
    std::optional<vpred::ValuePredictor> apred_;
    core::PathTracker tracker_;
    core::PathCache pathCache_;
    core::Prb prb_;
    core::UthreadBuilder builder_;
    core::MicroRam microRam_;
    core::PredictionCache pcache_;
    FuPool fu_;
    FuPool l1dPorts_;   ///< Table 3: 4 L1 data read ports per cycle
    PipelineTrace trace_;
    sim::Stats stats_;
    sim::IntervalSampler sampler_;

    // ---- Pipeline state ----
    uint64_t cycle_ = 0;
    uint64_t fetchPc_ = 0;
    uint64_t nextSeq_ = 1;
    uint64_t lastRetiredSeq_ = 0;
    uint64_t fetchResumeCycle_ = 0;
    uint64_t stallOwnerSeq_ = 0;
    bool halted_ = false;
    bool finalized_ = false;
    std::array<uint64_t, isa::kNumRegs> regReady_ = {};
    std::array<uint64_t, isa::kNumRegs> lastWriterSeq_ = {};
    /** In-flight primary-thread window, oldest first. Flat ring
     *  sized once from windowSize: no deque page churn. */
    sim::FlatRing<RobEntry> rob_;
    InFlightRing inflight_;
    /** Reusable drain buffer for Path Cache evicted promotions, so
     *  the retire loop never allocates in the common case. */
    std::vector<core::PathId> evictScratch_;

    // ---- Microthread state ----
    std::vector<Microcontext> contexts_;
    /** Scheduled completions in a slab-backed indexed min-heap: the
     *  same std::push_heap/pop_heap permutation (and therefore the
     *  same architecturally visible same-cycle tie order) as the old
     *  payload heap, but sifting 16-byte keys instead of 48-byte
     *  records. */
    sim::CompletionHeap<MicroCompletion> microEvents_;
    uint64_t microOpsInWindow_ = 0;
    uint32_t rrStart_ = 0;
    /** Count of contexts with active set — derived state letting the
     *  per-branch matcher feed and the per-cycle dispatch scan exit
     *  without touching the array. */
    uint32_t liveCtx_ = 0;
    /** Count of contexts that can still dispatch ops (active, not
     *  aborted, nextOp short of the routine end) — derived state so
     *  the per-cycle dispatch scan and fastForward()'s eligibility
     *  sweep exit in O(1) when every live context is merely
     *  draining. */
    uint32_t dispatchableCtx_ = 0;
    /** Count of contexts whose path matcher is still Live (active,
     *  not aborted) — derived state so the per-control-flow matcher
     *  feed skips the context array entirely once every in-flight
     *  routine has matched or left its path, which is the common
     *  state while ops drain. */
    uint32_t liveMatchers_ = 0;
    /** Bit per context with a Live matcher (bit i = contexts_[i]),
     *  kept in lockstep with liveMatchers_ while the context count
     *  fits in 64 bits: the per-taken-branch matcher feed then walks
     *  only the set bits, in index order, instead of scanning every
     *  context record. Derived state; unused (feedMatchers falls
     *  back to the full scan) beyond 64 contexts. */
    uint64_t liveMatcherMask_ = 0;

    // ---- Builder occupancy ----
    bool builderBusy_ = false;
    uint64_t builderReadyCycle_ = 0;
    core::MicroThread pendingInstall_;

    // ---- Oracle-mode promoted set ----
    sim::FlatSet oraclePromoted_;

    // ---- Throttle feedback (Section 5.3) ----
    struct RoutineFeedback
    {
        uint64_t spawns = 0;
        uint64_t useful = 0;
    };
    sim::FlatMap<RoutineFeedback> feedback_;
    sim::FlatSet suppressed_;

    // ---- Compiler hints (compile-time variant) ----
    sim::FlatSet staticHints_;

    // ---- Fault injection (sim/faultinject.hh) ----
    sim::FaultInjector faults_;
    /** attemptSpawns() returns immediately while cycle_ < this
     *  (spawn-drop fault site). */
    uint64_t spawnSuppressUntil_ = 0;
    /** The next successful spawn gets this dispatch-eligibility
     *  delay, then the flag clears (spawn-delay fault site). */
    uint64_t pendingSpawnDelay_ = 0;

    // ---- Phases of tick() ----
    void processMicroEvents();
    void maybeFinishBuild();
    void retire();
    int fetch();
    void dispatchMicrothreads(int slots);
    void injectFaults();

    // ---- Helpers ----
    bool mechanismActive() const
    {
        return cfg_.mode != sim::Mode::Baseline;
    }
    bool microthreadsActive() const
    {
        return cfg_.mode == sim::Mode::Microthread ||
               cfg_.mode == sim::Mode::MicrothreadNoPredictions;
    }
    bool predictionsUsable() const
    {
        return cfg_.mode == sim::Mode::Microthread;
    }
    uint64_t windowOccupancy() const
    {
        return rob_.size() + microOpsInWindow_;
    }

    void attemptSpawns(uint64_t pc, uint64_t seq);
    void noteUsefulPrediction(core::PathId id);
    void noteSpawn(core::PathId id);
    void feedMatchers(uint64_t pc, bool taken, uint64_t target);
    void abortContext(Microcontext &ctx);
    void handleStPCacheArrival(const MicroCompletion &event);
    void handlePromotion(core::PathId id, bool is_rebuild);
    void demote(core::PathId id);
    void finalizeStats();
    void populateSubstrateCounters(sim::Stats &stats) const;
    sim::Stats liveStats() const;

    static bool predMatches(bool pred_taken, uint64_t pred_target,
                            bool actual_taken, uint64_t actual_target);
};

} // namespace cpu
} // namespace ssmt

#endif // SSMT_CPU_SSMT_CORE_HH

