/**
 * @file
 * TAGE-style direction predictor (Seznec & Michaud): a bimodal base
 * table plus tagged tables indexed by geometrically growing slices
 * of global history, folded into index/tag hashes by circular shift
 * registers.
 *
 * Deviations from the reference implementation, chosen for the
 * repo's determinism contract (see direction_predictor.hh):
 *
 *  - **Deterministic allocation.** On a provider mispredict the
 *    replacement entry is the *lowest-numbered* longer table whose
 *    slot has usefulness 0 (the reference picks pseudo-randomly
 *    among candidates); when none qualifies, every candidate's
 *    usefulness decays by one.
 *  - **Deterministic aging.** All usefulness counters halve every
 *    kResetPeriod updates (the reference alternates column clears on
 *    a similar period).
 *
 * Both rules are pure functions of predictor state, so identical
 * branch streams produce byte-identical tables on any host.
 */

#ifndef SSMT_BPRED_TAGE_HH
#define SSMT_BPRED_TAGE_HH

#include <array>
#include <cstdint>

#include "bpred/direction_predictor.hh"
#include "bpred/sat_counter.hh"
#include "sim/table_pool.hh"

namespace ssmt
{
namespace bpred
{

class Tage final : public DirectionPredictor
{
  public:
    static constexpr int kNumTables = 6;        ///< tagged tables
    static constexpr int kTagBits = 10;
    static constexpr int kCtrMax = 7;           ///< 3-bit counter
    static constexpr int kCtrWeakTaken = 4;
    static constexpr int kUsefulMax = 3;        ///< 2-bit usefulness
    static constexpr uint32_t kResetPeriod = 256 * 1024;
    /** Geometric history lengths, shortest table first. */
    static constexpr std::array<int, kNumTables> kHistoryLengths = {
        4, 8, 16, 32, 64, 128};
    static constexpr int kMaxHistory = 128;

    /**
     * @param base_entries   bimodal base table size (power of two)
     * @param tagged_entries per-table tagged entries (power of two)
     */
    explicit Tage(uint64_t base_entries = 16 * 1024,
                  uint64_t tagged_entries = 4 * 1024);

    const char *name() const override { return "tage"; }
    bool predict(uint64_t pc) const override;
    void update(uint64_t pc, bool taken) override;
    bool predictAndTrain(uint64_t pc, bool taken) override;

    uint64_t baseEntries() const { return base_.size(); }
    uint64_t taggedEntries() const { return taggedEntries_; }

  private:
    struct Entry
    {
        uint16_t tag = 0;
        uint8_t ctr = kCtrWeakTaken - 1;    ///< weakly not-taken
        uint8_t useful = 0;
    };

    /** Folded-history circular shift register (Michaud's CSR): keeps
     *  origLen history bits XOR-folded into compLen bits, updated
     *  incrementally from the bit entering and the bit leaving the
     *  history window. */
    struct Folded
    {
        uint32_t comp = 0;
        int compLen = 1;
        int origLen = 1;

        void
        update(uint32_t bit_in, uint32_t bit_out)
        {
            comp = (comp << 1) | bit_in;
            comp ^= bit_out << (origLen % compLen);
            comp ^= comp >> compLen;
            comp &= (1u << compLen) - 1;
        }
    };

    /** Everything predict() derives from (pc, pre-update state);
     *  update() recomputes it so fused == split by construction. */
    struct Lookup
    {
        std::array<uint32_t, kNumTables> idx;
        std::array<uint16_t, kNumTables> tag;
        int provider = -1;          ///< longest matching table
        int alt = -1;               ///< next-longest match
        bool providerPred = false;
        bool altPred = false;       ///< alt table or base
        bool pred = false;          ///< final (alt-on-weak rule)
    };

    Lookup lookup(uint64_t pc) const;
    void train(const Lookup &lk, uint64_t pc, bool taken);
    bool historyBit(int pos) const;
    void pushHistory(bool taken);

    sim::TableVector<Counter2> base_;
    uint64_t baseMask_;
    std::array<sim::TableVector<Entry>, kNumTables> tables_;
    uint64_t taggedEntries_;
    uint32_t idxMask_;
    std::array<Folded, kNumTables> foldIdx_;
    std::array<Folded, kNumTables> foldTag0_;
    std::array<Folded, kNumTables> foldTag1_;
    /** Global history, bit 0 newest, kMaxHistory bits live. */
    std::array<uint64_t, (kMaxHistory + 63) / 64> hist_{};
    uint32_t tick_ = 0;             ///< updates since the last decay
};

} // namespace bpred
} // namespace ssmt

#endif // SSMT_BPRED_TAGE_HH
