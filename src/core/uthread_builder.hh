/**
 * @file
 * The Microthread Builder (paper Section 4.2): turns a promotion
 * request into a microthread by extracting the terminating branch's
 * backward dataflow slice from the Post-Retirement Buffer, choosing
 * a spawn point, and applying the MCB optimizations (move
 * elimination, constant propagation, and — optionally — pruning via
 * Vp_Inst/Ap_Inst).
 */

#ifndef SSMT_CORE_UTHREAD_BUILDER_HH
#define SSMT_CORE_UTHREAD_BUILDER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/microthread.hh"
#include "core/prb.hh"

namespace ssmt
{
namespace core
{

struct BuilderConfig
{
    /** Microthread Construction Buffer capacity (max slice ops). */
    int mcbEntries = 64;
    bool moveElimination = true;
    bool constantPropagation = true;
    bool pruningEnabled = false;
};

/** Cumulative builder statistics (Figure 8 inputs and diagnostics). */
struct BuildStats
{
    uint64_t requests = 0;
    uint64_t built = 0;
    uint64_t failScopeNotInPrb = 0;   ///< path longer than the PRB
    uint64_t failPathMismatch = 0;    ///< PRB youngest path != request
    uint64_t stopsMemDep = 0;         ///< slice cut at a store
    uint64_t stopsMcbFull = 0;        ///< slice cut by MCB capacity
    uint64_t totalOps = 0;            ///< sum of routine sizes
    uint64_t totalChain = 0;          ///< sum of longest chains
    uint64_t totalLiveIns = 0;
    uint64_t prunedRoutines = 0;
    uint64_t prunedSubtrees = 0;

    double
    avgRoutineSize() const
    {
        return built ? static_cast<double>(totalOps) / built : 0.0;
    }

    double
    avgLongestChain() const
    {
        return built ? static_cast<double>(totalChain) / built : 0.0;
    }
};

class UthreadBuilder
{
  public:
    explicit UthreadBuilder(const BuilderConfig &config = {});

    /**
     * Build a microthread for the difficult path @p id with history
     * depth @p n. The PRB's youngest entry must be the path's
     * terminating branch (it just retired; Section 4.2.2).
     *
     * Pruning reads the predictor confidence each PRB entry captured
     * at retirement (PrbEntry::vpConfident/apConfident).
     *
     * @param prb  frozen post-retirement buffer
     * @param id   the path being promoted
     * @param n    taken-branch depth of the path
     * @return the routine, or nullopt if construction failed
     */
    std::optional<MicroThread> build(const Prb &prb, PathId id, int n);

    const BuildStats &stats() const { return stats_; }
    const BuilderConfig &config() const { return config_; }

  private:
    BuilderConfig config_;
    BuildStats stats_;

    void optimize(MicroThread &thread);
    void propagateCopiesAndConstants(MicroThread &thread);
    void prune(MicroThread &thread);
    void eliminateDeadOps(MicroThread &thread);
};

} // namespace core
} // namespace ssmt

#endif // SSMT_CORE_UTHREAD_BUILDER_HH

