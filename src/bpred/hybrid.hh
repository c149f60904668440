/**
 * @file
 * gshare/PAs hybrid with a selector table (the Table 3 direction
 * predictor: 128K-entry components, 64K-entry selector).
 */

#ifndef SSMT_BPRED_HYBRID_HH
#define SSMT_BPRED_HYBRID_HH

#include <cstdint>

#include "bpred/direction_predictor.hh"
#include "bpred/gshare.hh"
#include "bpred/pas.hh"
#include "bpred/sat_counter.hh"
#include "sim/table_pool.hh"

namespace ssmt
{
namespace bpred
{

class Hybrid final : public DirectionPredictor
{
  public:
    Hybrid(uint64_t component_entries = 128 * 1024,
           uint64_t selector_entries = 64 * 1024,
           uint32_t history_bits = 0);

    const char *name() const override { return "hybrid"; }

    // predict/update run once per fetched conditional branch (tens
    // of millions of calls per run), so they live in the header;
    // `final` lets statically-typed callers devirtualize them.

    /** Predict direction for the branch at @p pc. */
    bool
    predict(uint64_t pc) const override
    {
        // Selector counter >= weakly-taken means "use gshare".
        if (selector_[selectorIndex(pc)].predictTaken())
            return gshare_.predict(pc);
        return pas_.predict(pc);
    }

    /**
     * Train both components and the selector with the actual
     * @p taken outcome. The selector moves towards the component
     * that was correct when exactly one of them was.
     */
    void
    update(uint64_t pc, bool taken) override
    {
        bool g_pred = gshare_.predict(pc);
        bool p_pred = pas_.predict(pc);
        bool used = predict(pc);

        recordOutcome(used, taken);

        // Selector trains only when the components disagree.
        Counter2 &sel = selector_[selectorIndex(pc)];
        if (g_pred != p_pred)
            sel.update(g_pred == taken);

        gshare_.update(pc, taken);
        pas_.update(pc, taken);
    }

    /**
     * predict() + update() fused for the per-branch hot path: one
     * selector probe and one index computation per component instead
     * of the doubled probes the split calls pay (update() re-derives
     * every component prediction). State evolution and the returned
     * pre-update prediction are exactly those of predict() followed
     * by update().
     */
    bool
    predictAndTrain(uint64_t pc, bool taken) override
    {
        // Selector ref and component indices all derive from the
        // pre-update gshare history, as in the split formulation.
        Counter2 &sel = selector_[selectorIndex(pc)];
        bool use_gshare = sel.predictTaken();
        bool g_pred = gshare_.predictAndTrain(pc, taken);
        bool p_pred = pas_.predictAndTrain(pc, taken);
        bool used = use_gshare ? g_pred : p_pred;

        recordOutcome(used, taken);

        // Selector trains only when the components disagree.
        if (g_pred != p_pred)
            sel.update(g_pred == taken);
        return used;
    }

    const Gshare &gshare() const { return gshare_; }
    const Pas &pas() const { return pas_; }

  private:
    Gshare gshare_;
    Pas pas_;
    sim::TableVector<Counter2> selector_;
    uint64_t selectorMask_;

    uint64_t
    selectorIndex(uint64_t pc) const
    {
        return (pc ^ gshare_.history()) & selectorMask_;
    }
};

} // namespace bpred
} // namespace ssmt

#endif // SSMT_BPRED_HYBRID_HH

