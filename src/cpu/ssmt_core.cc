#include "cpu/ssmt_core.hh"

#include <algorithm>
#include <bit>

#include "sim/golden.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace ssmt
{
namespace cpu
{

namespace
{

uint64_t
pathAddr(uint64_t pc)
{
    return pc * isa::kInstBytes;
}

} // namespace

SsmtCore::SsmtCore(const isa::Program &prog,
                   const sim::MachineConfig &config)
    : prog_(prog), cfg_(config), hier_(config.mem),
      fep_(config.directionConfig(), config.targetCacheEntries,
           config.rasDepth),
      tracker_(16),
      pathCache_(config.pathCacheEntries, config.pathCacheAssoc,
                 config.trainingInterval, config.difficultyThreshold),
      prb_(config.prbEntries), builder_(config.builder),
      microRam_(config.microRamEntries),
      pcache_(config.predictionCacheEntries), fu_(config.numFUs),
      l1dPorts_(config.l1dReadPorts), trace_(config.traceCapacity),
      sampler_(config.sampleInterval, config),
      contexts_(config.numMicrocontexts), faults_(config.faults)
{
    SSMT_ASSERT(prog.size() > 0, "cannot simulate an empty program");
    if (!cfg_.tracePath.empty() && !trace_.streamTo(cfg_.tracePath)) {
        throw sim::SimError(sim::ErrorCode::IoError, "ssmt_core",
                            "cannot open tracePath '" + cfg_.tracePath +
                                "' for JSONL streaming");
    }
    SSMT_ASSERT(config.pathN >= 1 && config.pathN <= 16,
                "path n must be in [1,16]");
    prog_.loadData(mem_);
    fetchPc_ = prog_.entry();
    staticHints_.insert(config.staticDifficultHints.begin(),
                        config.staticDifficultHints.end());
    if (config.builder.pruningEnabled) {
        vpred_.emplace(config.vpredEntries, config.vpredConfMax,
                       config.vpredConfThresh);
        apred_.emplace(config.vpredEntries, config.vpredConfMax,
                       config.vpredConfThresh);
    }

    // Pre-size the per-cycle structures so the simulation loop's
    // steady state never touches the allocator: the window ring, the
    // in-flight branch map and the micro-completion heap are all
    // bounded by windowSize.
    rob_.resetCapacity(static_cast<size_t>(config.windowSize));
    inflight_.reserve(static_cast<size_t>(config.windowSize));
    evictScratch_.reserve(16);
    microEvents_.reserve(static_cast<size_t>(config.windowSize));
    microRam_.setProgramSize(prog_.size());
}

bool
SsmtCore::predMatches(bool pred_taken, uint64_t pred_target,
                      bool actual_taken, uint64_t actual_target)
{
    if (pred_taken != actual_taken)
        return false;
    return !actual_taken || pred_target == actual_target;
}

bool
SsmtCore::done() const
{
    return halted_ && rob_.empty();
}

const sim::Stats &
SsmtCore::run()
{
    while (!done() && cycle_ < cfg_.maxCycles &&
           stats_.retiredInsts < cfg_.maxInsts) {
        fastForward(cfg_.maxCycles);
        tick();
    }
    finalizeStats();
    return stats_;
}

void
SsmtCore::fastForward(uint64_t stop)
{
    if (faults_.enabled())
        return;     // fault plans roll dice every cycle
    uint64_t next = cycle_ + 1;     // where the next tick() lands
    if (next >= stop)
        return;
    bool window_full = windowOccupancy() >=
                       static_cast<uint64_t>(cfg_.windowSize);
    // Fetch progressing next cycle is the common case: no skip.
    if (!halted_ && !window_full && fetchResumeCycle_ <= next)
        return;

    uint64_t target = stop;
    auto consider = [&](uint64_t c) {
        if (c < target)
            target = c;
    };
    if (!microEvents_.empty())
        consider(microEvents_.nextCycle());
    if (builderBusy_)
        consider(builderReadyCycle_);
    if (!rob_.empty())
        consider(rob_.front().completeCycle);
    if (!halted_ && !window_full)
        consider(fetchResumeCycle_);
    if (microthreadsActive() && !window_full &&
        dispatchableCtx_ > 0) {
        // A context with ops left dispatches as soon as it is
        // eligible (the window has room and fetch leaves it slots —
        // fetch is stalled on every skipped cycle). Fault plans are
        // the only writer of dispatchEligibleCycle, and they disable
        // fast-forwarding above, so eligibility here is immediate.
        consider(next);
    }
    if (cfg_.sampleInterval > 0) {
        consider((cycle_ / cfg_.sampleInterval + 1) *
                 cfg_.sampleInterval);
    }
    if (target <= next)
        return;

    // Cycles [next, target) tick as pure bubbles: fetch is stalled,
    // nothing completes, retires, builds, dispatches or samples.
    // Apply their aggregate accounting and jump the clock.
    uint64_t skipped = target - next;
    cycle_ = target - 1;
    stats_.cycles = cycle_;
    if (!halted_)
        stats_.fetchBubbleCycles += skipped;
    if (microthreadsActive() && !contexts_.empty()) {
        // tick() rotates the dispatch fairness pointer once per
        // cycle microthreads are live with free slots.
        rrStart_ = static_cast<uint32_t>(
            (rrStart_ + skipped) % contexts_.size());
    }
}

void
SsmtCore::tick()
{
    cycle_++;
    // Each stage call is guarded by the exact condition its body
    // would first test: on quiescent structures the stage is a
    // no-op, and the model runs millions of such cycles per run.
    if (!microEvents_.empty() && microEvents_.nextCycle() <= cycle_)
        processMicroEvents();
    if (builderBusy_ && cycle_ >= builderReadyCycle_)
        maybeFinishBuild();
    if (!rob_.empty() && rob_.front().completeCycle <= cycle_)
        retire();
    if (faults_.enabled())
        injectFaults();
    int fetched = fetch();
    if (microthreadsActive()) {
        int slots = cfg_.fetchWidth - fetched;
        if (slots > 0 && !contexts_.empty()) {
            // Rotate the dispatch fairness pointer each cycle the
            // dispatcher would have been entered with free slots. n
            // is a runtime value, so wrap with a compare, not a
            // modulo.
            uint32_t n = static_cast<uint32_t>(contexts_.size());
            rrStart_ = rrStart_ + 1 == n ? 0 : rrStart_ + 1;
            if (dispatchableCtx_ != 0)
                dispatchMicrothreads(slots);
        }
    }
    if (fetched == 0 && !halted_)
        stats_.fetchBubbleCycles++;
    stats_.cycles = cycle_;
    if (sampler_.due(cycle_))
        sampler_.sample(cycle_, liveStats(), currentGauges());
}

// ---------------------------------------------------------------------
// Fetch: up to fetchWidth correct-path instructions per cycle, bounded
// by branch-prediction and I-cache bandwidth. Execute-at-fetch.
// ---------------------------------------------------------------------

int
SsmtCore::fetch()
{
    if (halted_ || cycle_ < fetchResumeCycle_)
        return 0;

    int fetched = 0;
    int branches = 0;
    int lines = 0;
    uint64_t cur_line = ~0ull;
    // lineBytes is power-of-two (enforced by the Cache constructor),
    // so line identity is a mask, not a divide, per fetched inst.
    const uint64_t line_mask =
        ~(static_cast<uint64_t>(cfg_.mem.lineBytes) - 1);
    // Track occupancy locally: only this loop's own pushes change it
    // while fetch runs, so the per-instruction limit check does not
    // need to re-read the window structures.
    uint64_t occupancy = windowOccupancy();
    // Mode predicates are pure functions of cfg_.mode (constant for
    // the run); hoisted so the calls below don't force a reload of
    // cfg_ per instruction.
    const bool micro_active = microthreadsActive();
    const bool train_preds = micro_active && vpred_.has_value();

    while (fetched < cfg_.fetchWidth) {
        if (occupancy >= static_cast<uint64_t>(cfg_.windowSize))
            break;
        SSMT_ASSERT(fetchPc_ < prog_.size(), "fetch pc out of range");
        const isa::Inst &inst = prog_.inst(fetchPc_);

        // I-cache bandwidth and misses.
        uint64_t line = pathAddr(fetchPc_) & line_mask;
        if (line != cur_line) {
            if (lines >= cfg_.maxICacheLinesPerCycle)
                break;
            int lat = hier_.fetch(pathAddr(fetchPc_));
            lines++;
            cur_line = line;
            if (lat > cfg_.mem.l1Latency) {
                // Miss: the line is filling; fetch resumes when it
                // arrives.
                fetchResumeCycle_ = cycle_ + lat;
                break;
            }
        }

        if (inst.isControl() && branches >= cfg_.maxBranchPredsPerCycle)
            break;

        uint64_t pc = fetchPc_;
        uint64_t seq = nextSeq_++;

        // Spawn attempts fire when a spawn-point pc is fetched, with
        // the architectural state as of all older instructions. The
        // routinesAt() probe is hoisted here so the (overwhelmingly
        // common) no-routine case skips the call entirely; it is a
        // pure lookup, and no spawn counter moves before a routine id
        // is found, so the reorder past the suppress-window check in
        // attemptSpawns() is architecturally invisible.
        if (micro_active && !microRam_.routinesAt(pc).empty())
            attemptSpawns(pc, seq);

        // Functional execution (execute-at-fetch).
        isa::StepResult res = isa::step(inst, pc, regs_, mem_);

        // Value/address predictor training, only with pruning (the
        // one reader of the predictors). The paper trains at
        // retirement and reconciles the in-flight instance distance
        // at query time (Section 4.2.5); training at fetch and
        // anchoring queries at the spawn point is the equivalent,
        // exactly-reconciled formulation in an execute-at-fetch
        // model (DESIGN.md Section 4).
        if (train_preds) {
            if (res.regWrite)
                vpred_->train(pc, res.value);
            if (res.isLoad)
                apred_->train(pc, res.memAddr -
                                      static_cast<uint64_t>(inst.imm));
        }

        // Dataflow scheduling.
        uint64_t src_ready = 0;
        uint64_t producer_seq[2] = {0, 0};
        for (int s = 0; s < inst.numSrcs(); s++) {
            isa::RegIndex reg = inst.srcReg(s);
            if (reg == isa::kNoReg || reg == isa::kRegZero)
                continue;
            src_ready = std::max(src_ready, regReady_[reg]);
            producer_seq[s] = lastWriterSeq_[reg];
        }
        uint64_t rename_done = cycle_ + cfg_.frontendDepth;
        uint64_t complete;
        if (inst.op == isa::Opcode::Nop || inst.op == isa::Opcode::Halt) {
            complete = rename_done;
        } else {
            uint64_t start =
                fu_.schedule(std::max(rename_done, src_ready), cycle_);
            int lat;
            if (res.isLoad) {
                start = l1dPorts_.schedule(start, cycle_);
                lat = hier_.read(res.memAddr);
            } else if (res.isStore) {
                lat = 1;
            } else {
                lat = isa::opLatency(inst.op);
            }
            complete = start + lat;
        }
        if (res.isStore)
            hier_.write(res.memAddr);
        if (res.regWrite) {
            regReady_[inst.rd] = complete;
            lastWriterSeq_[inst.rd] = seq;
        }

        // Fill the window slot in place (emplace_back: every field
        // read downstream is assigned here).
        RobEntry &entry = rob_.emplace_back();
        entry.seq = seq;
        entry.pc = pc;
        entry.inst = inst;
        entry.completeCycle = complete;
        entry.value = res.value;
        entry.memAddr = res.memAddr;
        entry.taken = res.taken;
        entry.target = res.target;
        entry.srcSeq[0] = producer_seq[0];
        entry.srcSeq[1] = producer_seq[1];
        entry.isTerm = inst.isTerminatingBranch();
        fetched++;
        occupancy++;
        trace_.record(cycle_, TraceEvent::Fetch, pc, seq);

        if (res.halted) {
            halted_ = true;
            break;
        }

        if (!inst.isControl()) {
            fetchPc_ = res.nextPc;
            continue;
        }

        // ---- Control flow ----
        branches++;
        core::PathId path_id = 0;
        if (entry.isTerm)
            path_id = tracker_.pathId(cfg_.pathN);

        bpred::HwPrediction hw =
            fep_.predictAndTrain(pc, inst, res.taken, res.target);
        if (inst.isCondBranch()) {
            stats_.condBranches++;
            if (!hw.correct)
                stats_.condHwMispredicts++;
        } else if (inst.isIndirect()) {
            stats_.indirectBranches++;
            if (!hw.correct)
                stats_.indirectHwMispredicts++;
        }

        bool used_taken = hw.taken;
        uint64_t used_target = hw.target;

        if (entry.isTerm) {
            if (cfg_.mode == sim::Mode::OracleAllBranches) {
                used_taken = res.taken;
                used_target = res.target;
                stats_.oracleOverrides++;
            } else if (cfg_.mode == sim::Mode::OracleDifficultPath &&
                pathCache_.isPromoted(path_id)) {
                used_taken = res.taken;
                used_target = res.target;
                stats_.oracleOverrides++;
            } else if (predictionsUsable()) {
                const core::PredEntry *pred =
                    pcache_.lookup(path_id, seq);
                if (pred) {
                    // An early microthread prediction replaces the
                    // hardware prediction.
                    pcache_.markConsumed(path_id, seq);
                    used_taken = pred->taken;
                    used_target = pred->target;
                    stats_.predEarly++;
                    noteUsefulPrediction(path_id);
                    trace_.record(cycle_, TraceEvent::PredEarly, pc,
                                  seq, path_id);
                    if (predMatches(pred->taken, pred->target,
                                    res.taken, res.target)) {
                        stats_.microPredCorrect++;
                    } else {
                        stats_.microPredWrong++;
                    }
                }
            }
        }

        bool used_correct = predMatches(used_taken, used_target,
                                        res.taken, res.target);

        if (entry.isTerm) {
            InFlightBranch br;
            br.pathId = path_id;
            br.resolveCycle = complete;
            br.actualTaken = res.taken;
            br.actualTarget = res.target;
            br.usedTaken = used_taken;
            br.usedTarget = used_target;
            br.hwCorrect = hw.correct;
            br.usedCorrectAtFetch = used_correct;
            inflight_.insert(seq, br);
        }

        if (res.taken)
            tracker_.push(pathAddr(pc));
        if (micro_active)
            feedMatchers(pc, res.taken, res.target);

        fetchPc_ = res.nextPc;
        if (!used_correct) {
            trace_.record(cycle_, TraceEvent::Mispredict, pc, seq,
                          path_id);
            // Wrong-path bubble until resolution plus redirect.
            fetchResumeCycle_ = complete + cfg_.redirectPenalty;
            stallOwnerSeq_ = seq;
            break;
        }
    }
    return fetched;
}

// ---------------------------------------------------------------------
// Retirement: in-order, trains the back-end structures, feeds the PRB
// and the Path Cache, and drives promotion/demotion.
// ---------------------------------------------------------------------

void
SsmtCore::retire()
{
    int retired = 0;
    // Pure functions of cfg_.mode, hoisted so the opaque calls in the
    // loop body don't force a per-instruction reload of cfg_.
    const bool micro_active = microthreadsActive();
    const bool mech_active = mechanismActive();
    while (!rob_.empty() && retired < cfg_.fetchWidth &&
           rob_.front().completeCycle <= cycle_) {
        // Read the head in place; nothing below pushes to the window
        // (fetch runs later in the tick), so the reference stays
        // valid until the pop at the bottom of this iteration.
        const RobEntry &entry = rob_.front();
        retired++;
        stats_.retiredInsts++;
        lastRetiredSeq_ = entry.seq;
        trace_.record(cycle_, TraceEvent::Retire, entry.pc,
                      entry.seq);

        if (micro_active) {
            // Fill the evicted PRB slot in place (pushSlot: every
            // field is assigned).
            core::PrbEntry &prb_entry = prb_.pushSlot();
            prb_entry.seq = entry.seq;
            prb_entry.pc = entry.pc;
            prb_entry.inst = entry.inst;
            prb_entry.value = entry.value;
            prb_entry.memAddr = entry.memAddr;
            prb_entry.taken = entry.taken;
            prb_entry.target = entry.target;
            prb_entry.srcSeq[0] = entry.srcSeq[0];
            prb_entry.srcSeq[1] = entry.srcSeq[1];
            prb_entry.vpConfident = vpred_ &&
                                    entry.inst.writesReg() &&
                                    vpred_->confident(entry.pc);
            prb_entry.apConfident = apred_ && entry.inst.isLoad() &&
                                    apred_->confident(entry.pc);
        }

        if (entry.isTerm) {
            InFlightBranch br;
            bool found = inflight_.take(entry.seq, br);
            SSMT_ASSERT(found,
                        "terminating branch missing from in-flight map");
            (void)found;

            if (!br.usedCorrectAtFetch)
                stats_.usedMispredicts++;

            if (mech_active) {
                core::PathEvent event =
                    pathCache_.update(br.pathId, !br.hwCorrect);
                if (event == core::PathEvent::None &&
                    !staticHints_.empty() &&
                    staticHints_.contains(br.pathId) &&
                    !pathCache_.isPromoted(br.pathId)) {
                    // Compiler hint: skip the training interval.
                    event = core::PathEvent::RequestPromote;
                    stats_.hintPromotions++;
                }
                if (event == core::PathEvent::RequestPromote &&
                    !suppressed_.contains(br.pathId)) {
                    handlePromotion(br.pathId, false);
                } else if (event == core::PathEvent::Demote) {
                    demote(br.pathId);
                }
                if (pathCache_.hasEvictedPromotions()) {
                    pathCache_.drainEvictedPromotions(evictScratch_);
                    for (core::PathId evicted : evictScratch_)
                        demote(evicted);
                }
                if (cfg_.rebuildOnViolation &&
                    predictionsUsable() && br.microPredWrongConsumed) {
                    const core::MicroThread *thread =
                        microRam_.find(br.pathId);
                    if (thread && thread->speculatesOnMemory) {
                        stats_.rebuildRequests++;
                        handlePromotion(br.pathId, true);
                    }
                }
            }
        }

        rob_.pop_front();
        if ((stats_.retiredInsts & 63) == 0)
            pcache_.reclaimOlderThan(lastRetiredSeq_);
    }
}

// ---------------------------------------------------------------------
// Promotion / demotion
// ---------------------------------------------------------------------

void
SsmtCore::handlePromotion(core::PathId id, bool is_rebuild)
{
    if (cfg_.mode == sim::Mode::OracleDifficultPath) {
        if (oraclePromoted_.size() >= cfg_.microRamEntries)
            return;
        oraclePromoted_.insert(id);
        pathCache_.setPromoted(id, true);
        stats_.promotionsRequested++;
        stats_.promotionsCompleted++;
        trace_.record(cycle_, TraceEvent::Promote, 0, 0, id);
        return;
    }
    if (!microthreadsActive())
        return;
    if (builderBusy_)
        return;     // dropped; the promotion logic will re-request
    if (!is_rebuild)
        stats_.promotionsRequested++;
    auto built = builder_.build(prb_, id, cfg_.pathN);
    if (!built) {
        stats_.buildsFailed++;
        return;
    }
    pendingInstall_ = std::move(*built);
    builderBusy_ = true;
    builderReadyCycle_ = cycle_ + cfg_.buildLatency;
}

void
SsmtCore::maybeFinishBuild()
{
    if (!builderBusy_ || cycle_ < builderReadyCycle_)
        return;
    builderBusy_ = false;
    core::PathId id = pendingInstall_.pathId;
    if (microRam_.insert(std::move(pendingInstall_))) {
        pathCache_.setPromoted(id, true);
        stats_.promotionsCompleted++;
        trace_.record(cycle_, TraceEvent::Promote, 0, 0, id);
    }
    // On a full MicroRAM the Promoted bit stays clear and the Path
    // Cache keeps re-requesting until space frees up.
}

void
SsmtCore::demote(core::PathId id)
{
    if (cfg_.mode == sim::Mode::OracleDifficultPath)
        oraclePromoted_.erase(id);
    else
        microRam_.remove(id);
    pathCache_.setPromoted(id, false);
    stats_.demotions++;
    trace_.record(cycle_, TraceEvent::Demote, 0, 0, id);
}

// ---------------------------------------------------------------------
// Fault injection (sim/faultinject.hh)
// ---------------------------------------------------------------------

void
SsmtCore::injectFaults()
{
    if (!faults_.shouldFire(cycle_))
        return;

    // Every mutation below touches *speculative* helper state only;
    // the fetch loop always follows the functionally-executed
    // next pc, so a corrupted prediction can cost bubbles but never
    // steer the committed stream (the property the campaigns assert).
    bool hit = false;
    switch (faults_.site()) {
      case sim::FaultSite::PredCacheFlip:
        hit = pcache_.injectFlip(faults_.roll());
        break;
      case sim::FaultSite::PredCacheDrop:
        hit = pcache_.injectDrop(faults_.roll());
        break;
      case sim::FaultSite::PathCacheCorrupt:
        hit = pathCache_.injectCorrupt(faults_.roll());
        break;
      case sim::FaultSite::PathCacheEvict:
        hit = pathCache_.injectEvict(faults_.roll());
        if (hit && pathCache_.hasEvictedPromotions()) {
            // Retire only drains this on a terminating-branch
            // retire; an injected eviction must demote immediately
            // or the routine would leak until the next one.
            pathCache_.drainEvictedPromotions(evictScratch_);
            for (core::PathId evicted : evictScratch_)
                demote(evicted);
        }
        break;
      case sim::FaultSite::MicroRamTruncate:
      case sim::FaultSite::MicroRamGarble: {
        std::vector<core::PathId> ids = microRam_.ids();
        if (ids.empty())
            break;
        // The MicroRAM map is unordered; sort so victim selection is
        // a pure function of the plan's RNG stream.
        std::sort(ids.begin(), ids.end());
        core::PathId id = ids[faults_.roll() % ids.size()];
        const core::MicroThread *routine = microRam_.find(id);
        if (!routine)
            break;
        core::MicroThread mutated = *routine;
        uint64_t rnd = faults_.roll();
        if (faults_.site() == sim::FaultSite::MicroRamTruncate &&
            mutated.ops.size() >= 2) {
            // Chop the tail (always losing the trailing StPCache):
            // the slice still executes but never deposits.
            mutated.ops.resize(1 + rnd % (mutated.ops.size() - 1));
        } else {
            switch (rnd % 3) {
              case 0:
                // Wrong target Seq_Num: deposits miss their branch.
                mutated.seqDelta += 1 + (rnd >> 8) % 8;
                break;
              case 1:
                if (!mutated.expected.empty()) {
                    mutated.expected[(rnd >> 8) %
                                     mutated.expected.size()]
                        .target ^= (rnd >> 16) | 1;
                    break;
                }
                [[fallthrough]];
              case 2:
                if (!mutated.prefix.empty()) {
                    mutated.prefix[(rnd >> 8) % mutated.prefix.size()]
                        .pc ^= (rnd >> 16) | 1;
                } else {
                    mutated.seqDelta += 1 + (rnd >> 8) % 8;
                }
                break;
            }
        }
        // Replace in place; in-flight instances keep their shared
        // handle to the old routine until they drain.
        hit = microRam_.insert(std::move(mutated));
        break;
      }
      case sim::FaultSite::SpawnDrop:
        if (microRam_.size() > 0) {
            spawnSuppressUntil_ = cycle_ + 1 + faults_.roll() % 32;
            hit = true;
        }
        break;
      case sim::FaultSite::SpawnDelay:
        if (microRam_.size() > 0) {
            pendingSpawnDelay_ = 1 + faults_.roll() % 64;
            hit = true;
        }
        break;
      case sim::FaultSite::None:
        break;
    }

    hit ? faults_.noteInjected() : faults_.noteNoTarget();
}

// ---------------------------------------------------------------------
// Spawning and the abort mechanism
// ---------------------------------------------------------------------

void
SsmtCore::attemptSpawns(uint64_t pc, uint64_t seq)
{
    // Spawn-drop fault window: the attempt never reaches the spawn
    // unit, so none of the spawn-conservation counters move.
    if (cycle_ < spawnSuppressUntil_)
        return;
    const std::vector<core::SpawnTarget> &ids =
        microRam_.routinesAt(pc);
    if (ids.empty())
        return;
    // The spawn index and the routine store move in lockstep, so at
    // loop entry every target's raw routine pointer is live and a
    // store probe would always succeed. That only breaks when a
    // demotion fires *mid-loop* (noteSpawn() -> throttle -> demote()
    // mutates this very vector under the iteration), and demotions
    // are the only mutation reachable from here — so one removals()
    // compare per target stands in for the per-attempt hash probe,
    // and the probe (whose failure must exit before any counter
    // moves — spawn conservation) only runs once a demotion has
    // actually made the entry suspect.
    const uint64_t removals0 = microRam_.removals();
    // The tracker doesn't move inside the loop, so the newest prefix
    // branch every target compares against is loop-invariant.
    const uint64_t newest_branch = tracker_.recent(0);
    for (const core::SpawnTarget &target : ids) {
        core::PathId id = target.id;
        const core::MicroThread *probe = target.thread.get();
        if (microRam_.removals() != removals0) {
            probe = microRam_.find(id);
            if (!probe)
                continue;
        }
        stats_.spawnAttempts++;
        // The newest prefix branch is denormalized into the index
        // entry, so the dominant first-comparison mismatch (the
        // paper's 67% prefix-abort rate) never touches the
        // routine's prefix vector (same comparison prefixMatches()
        // makes first).
        if ((target.prefixLen > 0 &&
             newest_branch != target.lastPrefixAddr) ||
            !core::prefixMatches(*probe, tracker_)) {
            stats_.spawnAbortPrefix++;
            trace_.record(cycle_, TraceEvent::SpawnAbortPrefix, pc,
                          seq, id);
            continue;
        }
        Microcontext *free_ctx = nullptr;
        // liveCtx_ answers "all busy" in O(1); the scan only runs
        // when a free context actually exists. All-busy is the
        // dominant outcome (golden: 5.7M of 11.3M attempts).
        if (liveCtx_ < contexts_.size()) {
            for (Microcontext &ctx : contexts_) {
                if (!ctx.active) {
                    free_ctx = &ctx;
                    break;
                }
            }
        }
        if (!free_ctx) {
            stats_.spawnNoContext++;
            continue;
        }
        // The index entry owns a handle aliasing the routine store,
        // so the spawn adopts it without re-probing the store. After
        // a mid-loop demotion the re-validated raw pointer is
        // authoritative (it always aliases target.thread: demotions
        // only remove entries, and rebuilds re-index).
        std::shared_ptr<const core::MicroThread> thread =
            probe == target.thread.get() ? target.thread
                                         : microRam_.findShared(id);
        if (!thread)
            continue;
        free_ctx->active = true;
        liveCtx_++;
        if (!thread->ops.empty())
            dispatchableCtx_++;
        free_ctx->thread = thread;
        free_ctx->matcher = core::PathMatcher(thread.get());
        if (free_ctx->matcher.status() ==
            core::PathMatcher::Status::Live) {
            liveMatchers_++;
            size_t idx =
                static_cast<size_t>(free_ctx - contexts_.data());
            if (idx < 64)
                liveMatcherMask_ |= 1ull << idx;
        }
        // Seed only the live-in registers (and their readiness):
        // every other architectural register is, by the live-in
        // analysis, written by the routine before any read, so the
        // two 256-byte bulk copies the spawn used to pay collapse to
        // a few lane moves. Untouched slots keep deterministic
        // leftovers from the context's previous occupant, which no
        // dispatch-path reader ever sees.
        for (isa::RegIndex reg : thread->liveIns) {
            free_ctx->regs.write(reg, regs_.read(reg));
            free_ctx->regReady[reg] = regReady_[reg];
        }
        // Capture pruning predictions now, anchored at the spawn.
        // Zero-fill the whole vector (a previous occupant's stale
        // slots must not leak into this routine), then
        // seed only the precomputed Vp/Ap positions instead of
        // scanning every op of the routine. Only a pruned routine has
        // such positions, and pruning implies the predictors.
        free_ctx->predictedValues.assign(thread->ops.size(), 0);
        for (uint32_t pos : thread->predPositions) {
            const core::MicroOp &op = thread->ops[pos];
            free_ctx->predictedValues[pos] =
                op.inst.op == isa::Opcode::VpInst
                    ? vpred_->predict(op.origPc, op.ahead)
                    : apred_->predict(op.origPc, op.ahead);
        }
        free_ctx->nextOp = 0;
        free_ctx->opsInFlight = 0;
        free_ctx->aborted = false;
        free_ctx->spawnSeq = seq;
        free_ctx->targetSeq = seq + thread->seqDelta;
        free_ctx->spawnCycle = cycle_;
        free_ctx->dispatchEligibleCycle = 0;
        if (pendingSpawnDelay_ > 0) {
            // Spawn-delay fault: this spawn exists but cannot
            // dispatch until the delay elapses.
            free_ctx->dispatchEligibleCycle =
                cycle_ + pendingSpawnDelay_;
            pendingSpawnDelay_ = 0;
        }
        stats_.spawns++;
        trace_.record(cycle_, TraceEvent::Spawn, pc, seq, id,
                      static_cast<uint32_t>(free_ctx -
                                            contexts_.data()));
        noteSpawn(id);
    }
}

void
SsmtCore::noteSpawn(core::PathId id)
{
    if (!cfg_.throttleEnabled)
        return;
    RoutineFeedback &fb = feedback_[id];
    fb.spawns++;
    if (fb.spawns % cfg_.throttleWindow != 0)
        return;
    double useful_rate = static_cast<double>(fb.useful) /
                         static_cast<double>(fb.spawns);
    if (useful_rate < cfg_.throttleMinUseful) {
        // This routine burns resources without delivering; demote
        // and keep it out (Section 5.3's throttling idea).
        suppressed_.insert(id);
        demote(id);
        stats_.throttleDemotions++;
        feedback_.erase(id);
    }
}

void
SsmtCore::noteUsefulPrediction(core::PathId id)
{
    if (!cfg_.throttleEnabled)
        return;
    if (RoutineFeedback *fb = feedback_.find(id))
        fb->useful++;
}

void
SsmtCore::feedMatchers(uint64_t pc, bool taken, uint64_t target)
{
    if (liveMatchers_ == 0)
        return;
    if (contexts_.size() <= 64) {
        // Walk only the contexts whose matcher is Live — the mask
        // iterates in ascending index order, the same order the full
        // scan visits them.
        uint64_t mask = liveMatcherMask_;
        while (mask != 0) {
            uint32_t idx =
                static_cast<uint32_t>(std::countr_zero(mask));
            mask &= mask - 1;
            Microcontext &ctx = contexts_[idx];
            auto status = ctx.matcher.onControlFlow(pc, taken, target);
            if (status != core::PathMatcher::Status::Live) {
                liveMatchers_--;
                liveMatcherMask_ &= ~(1ull << idx);
            }
            if (status == core::PathMatcher::Status::Deviated)
                abortContext(ctx);
        }
        return;
    }
    for (Microcontext &ctx : contexts_) {
        if (!ctx.active || ctx.aborted)
            continue;
        if (ctx.matcher.status() != core::PathMatcher::Status::Live)
            continue;
        auto status = ctx.matcher.onControlFlow(pc, taken, target);
        if (status != core::PathMatcher::Status::Live)
            liveMatchers_--;
        if (status == core::PathMatcher::Status::Deviated)
            abortContext(ctx);
    }
}

void
SsmtCore::abortContext(Microcontext &ctx)
{
    if (ctx.active && !ctx.aborted && ctx.thread &&
        ctx.nextOp < ctx.thread->ops.size())
        dispatchableCtx_--;
    if (ctx.active && !ctx.aborted &&
        ctx.matcher.status() == core::PathMatcher::Status::Live) {
        liveMatchers_--;
        size_t idx = static_cast<size_t>(&ctx - contexts_.data());
        if (idx < 64)
            liveMatcherMask_ &= ~(1ull << idx);
    }
    // Ops already in the window cannot be aborted; they drain.
    ctx.aborted = true;
    stats_.abortsPostSpawn++;
    trace_.record(cycle_, TraceEvent::ThreadAbort, 0, ctx.spawnSeq,
                  ctx.thread ? ctx.thread->pathId : 0,
                  static_cast<uint32_t>(&ctx - contexts_.data()));
    if (ctx.drained()) {
        ctx.reset();
        liveCtx_--;
    }
}

// ---------------------------------------------------------------------
// Microthread dispatch and completion
// ---------------------------------------------------------------------

void
SsmtCore::dispatchMicrothreads(int slots)
{
    // Preconditions (tick() owns the guards and the fairness
    // rotation): slots > 0, contexts exist, dispatchableCtx_ > 0.
    uint32_t n = static_cast<uint32_t>(contexts_.size());
    // Track occupancy locally: only this loop's own pushes change it
    // while dispatch runs (fetch already ran this cycle).
    uint64_t occupancy = windowOccupancy();
    for (uint32_t i = 0; i < n && slots > 0; i++) {
        uint32_t slot = rrStart_ + i;
        if (slot >= n)
            slot -= n;
        Microcontext &ctx = contexts_[slot];
        if (cycle_ < ctx.dispatchEligibleCycle)
            continue;
        // Nothing in the dispatch body flips these flags or swaps
        // the routine, so hoist them (and the shared-handle deref)
        // out of the per-op loop.
        if (!ctx.active || ctx.aborted || !ctx.thread)
            continue;
        const std::vector<core::MicroOp> &ops = ctx.thread->ops;
        while (slots > 0 && ctx.nextOp < ops.size()) {
            if (occupancy >= static_cast<uint64_t>(cfg_.windowSize))
                return;
            const core::MicroOp &op = ops[ctx.nextOp];
            const isa::Inst &inst = op.inst;

            uint64_t src_ready = 0;
            for (int s = 0; s < inst.numSrcs(); s++) {
                isa::RegIndex reg = inst.srcReg(s);
                if (reg == isa::kNoReg || reg == isa::kRegZero)
                    continue;
                src_ready = std::max(src_ready, ctx.regReady[reg]);
            }
            // Microthread ops skip the I-cache but pay decode/rename.
            uint64_t earliest = std::max(
                cycle_ + cfg_.frontendDepth - cfg_.mem.l1Latency,
                src_ready);

            MicroCompletion event;
            event.ctx =
                static_cast<uint32_t>(&ctx - contexts_.data());
            event.isStPCache = false;

            uint64_t start;
            int lat;
            switch (inst.op) {
              case isa::Opcode::VpInst:
              case isa::Opcode::ApInst:
                ctx.regs.write(inst.rd,
                               ctx.predictedValues[ctx.nextOp]);
                start = fu_.schedule(earliest, cycle_);
                lat = cfg_.vpInstLatency;
                break;
              case isa::Opcode::StPCache: {
                // Evaluate the terminating branch's outcome from the
                // microthread's registers.
                core::RoutineOutcome outcome =
                    core::evalStorePCache(op, ctx.regs);
                event.isStPCache = true;
                event.pathId = ctx.thread->pathId;
                event.targetSeq = ctx.targetSeq;
                event.taken = outcome.taken;
                event.target = outcome.target;
                start = fu_.schedule(earliest, cycle_);
                lat = 1;
                break;
              }
              default: {
                isa::StepResult res =
                    isa::step(inst, op.origPc, ctx.regs, mem_);
                start = fu_.schedule(earliest, cycle_);
                if (res.isLoad) {
                    start = l1dPorts_.schedule(start, cycle_);
                    lat = hier_.read(res.memAddr);
                } else {
                    lat = isa::opLatency(inst.op);
                }
                break;
              }
            }

            uint64_t complete = start + lat;
            if (inst.writesReg())
                ctx.regReady[inst.rd] = complete;

            event.cycle = complete;
            microEvents_.push(event);
            ctx.opsInFlight++;
            microOpsInWindow_++;
            occupancy++;
            ctx.nextOp++;
            if (ctx.nextOp == ops.size())
                dispatchableCtx_--;
            stats_.microOpsExecuted++;
            slots--;
        }
    }
}

void
SsmtCore::processMicroEvents()
{
    // Drain in place: nothing below pushes to the heap, so the
    // peeked payload stays valid and each event avoids the 48-byte
    // copy a pop-into-local would pay.
    while (const MicroCompletion *event =
               microEvents_.peekReady(cycle_)) {
        microOpsInWindow_--;
        Microcontext &ctx = contexts_[event->ctx];
        SSMT_ASSERT(ctx.opsInFlight > 0,
                    "micro completion for an idle context");
        ctx.opsInFlight--;

        if (event->isStPCache && predictionsUsable())
            handleStPCacheArrival(*event);

        if (ctx.active && ctx.drained()) {
            if (!ctx.aborted) {
                stats_.microthreadsCompleted++;
                trace_.record(cycle_, TraceEvent::ThreadComplete, 0,
                              ctx.spawnSeq,
                              ctx.thread ? ctx.thread->pathId : 0,
                              event->ctx);
            }
            if (!ctx.aborted &&
                ctx.matcher.status() ==
                    core::PathMatcher::Status::Live) {
                liveMatchers_--;
                if (event->ctx < 64)
                    liveMatcherMask_ &= ~(1ull << event->ctx);
            }
            ctx.reset();
            liveCtx_--;
        }
        microEvents_.popFront();
    }
}

void
SsmtCore::handleStPCacheArrival(const MicroCompletion &event)
{
    InFlightBranch *found = inflight_.find(event.targetSeq);
    if (found && found->pathId == event.pathId) {
        InFlightBranch &br = *found;
        bool micro_correct =
            predMatches(event.taken, event.target, br.actualTaken,
                        br.actualTarget);
        if (cycle_ >= br.resolveCycle) {
            stats_.predUseless++;
            return;
        }
        stats_.predLate++;
        micro_correct ? stats_.microPredCorrect++
                      : stats_.microPredWrong++;
        noteUsefulPrediction(event.pathId);
        trace_.record(cycle_, TraceEvent::PredLate, 0,
                      event.targetSeq, event.pathId, event.ctx);

        bool differs = event.taken != br.usedTaken ||
                       (event.taken && event.target != br.usedTarget);
        if (!differs)
            return;

        // "If a late microthread prediction does not match the
        // hardware prediction used for that branch, it is assumed
        // that the microthread prediction is more accurate, and an
        // early recovery is initiated." (Section 4.3.3)
        if (micro_correct && !br.usedCorrectAtFetch) {
            stats_.earlyRecoveries++;
            trace_.record(cycle_, TraceEvent::EarlyRecovery, 0,
                          event.targetSeq, event.pathId);
            if (stallOwnerSeq_ == event.targetSeq) {
                fetchResumeCycle_ =
                    std::min(fetchResumeCycle_,
                             cycle_ + cfg_.redirectPenalty);
            }
        } else if (!micro_correct && br.usedCorrectAtFetch) {
            // Bogus recovery: a correct fetch path is flushed; fetch
            // restarts only after the branch resolves and redirects.
            stats_.bogusRecoveries++;
            trace_.record(cycle_, TraceEvent::BogusRecovery, 0,
                          event.targetSeq, event.pathId);
            br.microPredWrongConsumed = true;
            fetchResumeCycle_ =
                std::max(fetchResumeCycle_,
                         br.resolveCycle + cfg_.redirectPenalty);
            stallOwnerSeq_ = event.targetSeq;
        } else if (!micro_correct) {
            br.microPredWrongConsumed = true;
        }
        return;
    }

    if (event.targetSeq <= lastRetiredSeq_) {
        // The branch already resolved and retired.
        stats_.predUseless++;
        return;
    }
    if (event.targetSeq < nextSeq_) {
        // That instance was fetched but is not this path's branch:
        // the primary thread left the path; the prediction's target
        // was never reached.
        stats_.predNeverReached++;
        return;
    }
    // Not fetched yet: deposit for early use.
    pcache_.write(event.pathId, event.targetSeq, event.taken,
                  event.target, cycle_);
}

// ---------------------------------------------------------------------
// Final accounting
// ---------------------------------------------------------------------

void
SsmtCore::populateSubstrateCounters(sim::Stats &stats) const
{
    stats.pathCacheUpdates = pathCache_.updates();
    stats.pathCacheAllocations = pathCache_.allocations();
    stats.pathCacheAllocationsSkipped =
        pathCache_.allocationsSkipped();
    stats.pcacheWrites = pcache_.writes();
    stats.pcacheLookupHits = pcache_.lookupHits();
    stats.l1dMisses = hier_.l1d().misses();
    stats.l1dAccesses = hier_.l1d().accesses();
    stats.l2Misses = hier_.l2().misses();
    stats.l2Accesses = hier_.l2().accesses();
    stats.build = builder_.stats();
}

sim::Stats
SsmtCore::liveStats() const
{
    // A mid-run view with the substrate counters filled in; unlike
    // finalizeStats() this never reclaims the prediction cache, so
    // sampling is side-effect free.
    sim::Stats out = stats_;
    populateSubstrateCounters(out);
    out.cycles = cycle_;
    return out;
}

sim::OccupancyGauges
SsmtCore::currentGauges() const
{
    sim::OccupancyGauges g;
    g.prbEntries = prb_.size();
    uint64_t live = 0;
    for (const Microcontext &ctx : contexts_)
        live += ctx.active ? 1 : 0;
    g.liveMicrocontexts = live;
    g.pcacheValidEntries = pcache_.occupancy();
    g.microRamRoutines = microRam_.size();
    g.windowFill = windowOccupancy();
    return g;
}

void
SsmtCore::finalizeStats()
{
    if (finalized_)
        return;
    finalized_ = true;
    pcache_.reclaimOlderThan(~0ull);
    stats_.predNeverReached += pcache_.reclaimedUnconsumed();
    populateSubstrateCounters(stats_);
    stats_.cycles = cycle_;
    if (sampler_.enabled())
        sampler_.finalize(cycle_, stats_, currentGauges());
}

// ---------------------------------------------------------------------
// Structural self-check
// ---------------------------------------------------------------------

std::vector<sim::InvariantViolation>
SsmtCore::checkStructuralInvariants() const
{
    std::vector<sim::InvariantViolation> out;
    auto bound = [&](const char *relation, const char *expr,
                     uint64_t value, uint64_t limit) {
        if (value > limit) {
            out.push_back({relation,
                           std::string(expr) + " violated (" +
                               std::to_string(value) + " > " +
                               std::to_string(limit) + ")"});
        }
    };

    bound("prb-occupancy", "prb.size <= prb.capacity", prb_.size(),
          prb_.capacity());
    bound("pcache-occupancy",
          "predictionCache.occupancy <= numSets * assoc",
          pcache_.occupancy(),
          static_cast<uint64_t>(pcache_.numSets()) * pcache_.assoc());
    bound("microram-occupancy", "microRam.size <= microRam.capacity",
          microRam_.size(), microRam_.capacity());
    bound("pathcache-occupancy",
          "pathCache.occupancy <= pathCache.numEntries",
          pathCache_.occupancy(), pathCache_.numEntries());
    bound("pathcache-difficult-le-occupancy",
          "pathCache.difficultCount <= pathCache.occupancy",
          pathCache_.difficultCount(), pathCache_.occupancy());
    bound("window-occupancy", "rob + microOpsInWindow <= windowSize",
          windowOccupancy(),
          static_cast<uint64_t>(cfg_.windowSize));
    uint64_t active = 0;
    for (const Microcontext &ctx : contexts_)
        if (ctx.active)
            active++;
    bound("microcontext-occupancy",
          "active contexts <= numMicrocontexts", active,
          contexts_.size());
    return out;
}

} // namespace cpu
} // namespace ssmt

