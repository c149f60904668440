/**
 * @file
 * Hashed perceptron direction predictor (Jiménez & Lin's perceptron
 * in the hashed, multi-table formulation of Tarjan & Skadron): a
 * bias table indexed by pc plus kNumTables weight tables, each
 * indexed by a hash of pc with one 8-bit segment of global history.
 * The prediction is the sign of the summed weights; training bumps
 * every participating weight toward the outcome when the prediction
 * was wrong or the sum fell inside the confidence margin.
 *
 * Because the history segment is folded into the *index*, weights
 * train toward the outcome directly (the classic per-bit agree/
 * disagree step is absorbed by the hash). Everything is a pure
 * function of (pc, taken, state): no randomness, so identical
 * streams yield byte-identical tables.
 */

#ifndef SSMT_BPRED_PERCEPTRON_HH
#define SSMT_BPRED_PERCEPTRON_HH

#include <array>
#include <cstdint>

#include "bpred/direction_predictor.hh"
#include "sim/table_pool.hh"

namespace ssmt
{
namespace bpred
{

class Perceptron final : public DirectionPredictor
{
  public:
    static constexpr int kNumTables = 8;
    static constexpr int kSegmentBits = 8;      ///< history per table
    static constexpr int kHistoryBits = kNumTables * kSegmentBits;
    static constexpr int kWeightMax = 127;      ///< int8-equivalent
    static constexpr int kWeightMin = -128;
    /** Training margin: retrain while |sum| <= theta even when the
     *  sign was right (large-margin perceptron). ~2.14*(T+1)+20.6
     *  for T participating tables, per the hashed-perceptron
     *  literature. */
    static constexpr int kTheta = 40;

    /** @param table_entries weights per table (power of two). */
    explicit Perceptron(uint64_t table_entries = 4 * 1024);

    const char *name() const override { return "perceptron"; }
    bool predict(uint64_t pc) const override;
    void update(uint64_t pc, bool taken) override;
    bool predictAndTrain(uint64_t pc, bool taken) override;

    uint64_t tableEntries() const { return bias_.size(); }

  private:
    struct Lookup
    {
        std::array<uint32_t, kNumTables> idx;
        uint32_t biasIdx = 0;
        int sum = 0;
        bool pred = false;
    };

    Lookup lookup(uint64_t pc) const;
    void train(const Lookup &lk, bool taken);

    sim::TableVector<int16_t> bias_;
    std::array<sim::TableVector<int16_t>, kNumTables> tables_;
    uint64_t mask_;
    uint64_t hist_ = 0;             ///< bit 0 newest outcome
};

} // namespace bpred
} // namespace ssmt

#endif // SSMT_BPRED_PERCEPTRON_HH
