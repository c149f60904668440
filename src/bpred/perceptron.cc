#include "bpred/perceptron.hh"

#include "sim/logging.hh"

namespace ssmt
{
namespace bpred
{

namespace
{

/** splitmix64-style finalizer over (pc, table, history segment). */
inline uint64_t
mixIndex(uint64_t pc, int table, uint64_t segment)
{
    uint64_t h = pc ^ (pc >> 13) ^
                 (segment * 0x9E3779B97F4A7C15ull) ^
                 (static_cast<uint64_t>(table + 1) *
                  0xBF58476D1CE4E5B9ull);
    h ^= h >> 29;
    h *= 0x94D049BB133111EBull;
    h ^= h >> 32;
    return h;
}

} // namespace

Perceptron::Perceptron(uint64_t table_entries)
    : bias_(table_entries, 0), mask_(table_entries - 1)
{
    SSMT_ASSERT((table_entries & mask_) == 0,
                "perceptron table size must be a power of two");
    for (auto &table : tables_)
        table.assign(table_entries, 0);
}

Perceptron::Lookup
Perceptron::lookup(uint64_t pc) const
{
    Lookup lk;
    lk.biasIdx = static_cast<uint32_t>((pc ^ (pc >> 16)) & mask_);
    lk.sum = bias_[lk.biasIdx];
    for (int i = 0; i < kNumTables; i++) {
        uint64_t segment =
            (hist_ >> (i * kSegmentBits)) & ((1u << kSegmentBits) - 1);
        lk.idx[i] =
            static_cast<uint32_t>(mixIndex(pc, i, segment) & mask_);
        lk.sum += tables_[i][lk.idx[i]];
    }
    lk.pred = lk.sum >= 0;
    return lk;
}

bool
Perceptron::predict(uint64_t pc) const
{
    return lookup(pc).pred;
}

void
Perceptron::train(const Lookup &lk, bool taken)
{
    recordOutcome(lk.pred, taken);

    int magnitude = lk.sum >= 0 ? lk.sum : -lk.sum;
    if (lk.pred != taken || magnitude <= kTheta) {
        auto bump = [taken](int16_t &w) {
            if (taken) {
                if (w < kWeightMax)
                    w++;
            } else {
                if (w > kWeightMin)
                    w--;
            }
        };
        bump(bias_[lk.biasIdx]);
        for (int i = 0; i < kNumTables; i++)
            bump(tables_[i][lk.idx[i]]);
    }

    hist_ = (hist_ << 1) | (taken ? 1 : 0);
}

void
Perceptron::update(uint64_t pc, bool taken)
{
    train(lookup(pc), taken);
}

bool
Perceptron::predictAndTrain(uint64_t pc, bool taken)
{
    Lookup lk = lookup(pc);
    train(lk, taken);
    return lk.pred;
}

} // namespace bpred
} // namespace ssmt
