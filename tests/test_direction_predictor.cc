/**
 * @file
 * Tests for the DirectionPredictor seam and its backends (TAGE,
 * hashed perceptron, hybrid-behind-the-seam).
 *
 * Every backend is held to the same contract: deterministic,
 * fused predictAndTrain == split predict+update (bit-exact, learned
 * state and stats included), and reference-model accuracy on
 * streams the backend's mechanism is supposed to capture.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bpred/direction_predictor.hh"
#include "bpred/hybrid.hh"
#include "bpred/perceptron.hh"
#include "bpred/tage.hh"

namespace
{

using namespace ssmt;
using bpred::DirectionConfig;
using bpred::DirectionPredictor;
using bpred::PredictorKind;

/** Deterministic xorshift stream so tests never depend on libc rand. */
struct Rng {
    uint64_t s;
    explicit Rng(uint64_t seed) : s(seed ? seed : 1) {}
    uint64_t next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
};

DirectionConfig
smallConfig(PredictorKind kind)
{
    DirectionConfig cfg;
    cfg.kind = kind;
    cfg.componentEntries = 8 * 1024;
    cfg.selectorEntries = 4 * 1024;
    return cfg;
}

/** The learned state two predictors must share after the same
 *  stream, as seen through the const predict(): the direction each
 *  would give at every pc in [0, 4 * @p num_pcs) step 4. */
template <typename P>
std::vector<bool>
predictionsOver(const P &p, uint64_t num_pcs)
{
    std::vector<bool> out;
    out.reserve(num_pcs);
    for (uint64_t i = 0; i < num_pcs; i++)
        out.push_back(p.predict(4 * i));
    return out;
}

TEST(DirectionPredictorTest, KindNamesRoundTripThroughParse)
{
    for (PredictorKind kind : bpred::allPredictorKinds()) {
        PredictorKind parsed;
        ASSERT_TRUE(
            bpred::parsePredictorKind(predictorKindName(kind), &parsed))
            << predictorKindName(kind);
        EXPECT_EQ(parsed, kind);
    }
    PredictorKind parsed;
    EXPECT_FALSE(bpred::parsePredictorKind("gshare2", &parsed));
    EXPECT_FALSE(bpred::parsePredictorKind("", &parsed));
    EXPECT_FALSE(bpred::parsePredictorKind("TAGE", &parsed));
}

TEST(DirectionPredictorTest, FactoryBuildsTheRequestedBackend)
{
    for (PredictorKind kind : bpred::allPredictorKinds()) {
        auto p = bpred::makeDirectionPredictor(smallConfig(kind));
        ASSERT_NE(p, nullptr);
        EXPECT_STREQ(p->name(), bpred::predictorKindName(kind));
        EXPECT_EQ(p->predictions(), 0u);
        EXPECT_EQ(p->mispredictions(), 0u);
    }
}

// The three cross-backend contract suites run over every kind the
// factory knows, so a future backend inherits them for free.

TEST(DirectionPredictorTest, FusedEqualsSplitOnRandomStreams)
{
    for (PredictorKind kind : bpred::allPredictorKinds()) {
        auto fused = bpred::makeDirectionPredictor(smallConfig(kind));
        auto split = bpred::makeDirectionPredictor(smallConfig(kind));
        Rng rng(0x5eed0000 + static_cast<uint64_t>(kind));
        for (int i = 0; i < 20000; i++) {
            uint64_t r = rng.next();
            uint64_t pc = 4 * (r % 997);
            bool taken = (r >> 32) & 1;
            bool a = fused->predictAndTrain(pc, taken);
            bool b = split->predict(pc);
            split->update(pc, taken);
            ASSERT_EQ(a, b) << bpred::predictorKindName(kind)
                            << " diverged at step " << i;
        }
        EXPECT_EQ(fused->predictions(), split->predictions());
        EXPECT_EQ(fused->mispredictions(), split->mispredictions());
        EXPECT_EQ(predictionsOver(*fused, 997),
                  predictionsOver(*split, 997))
            << bpred::predictorKindName(kind);
    }
}

TEST(DirectionPredictorTest, IdenticalStreamsYieldIdenticalState)
{
    for (PredictorKind kind : bpred::allPredictorKinds()) {
        auto a = bpred::makeDirectionPredictor(smallConfig(kind));
        auto b = bpred::makeDirectionPredictor(smallConfig(kind));
        Rng rngA(42), rngB(42);
        for (int i = 0; i < 10000; i++) {
            uint64_t ra = rngA.next(), rb = rngB.next();
            a->predictAndTrain(4 * (ra % 331), ra & 1);
            b->predictAndTrain(4 * (rb % 331), rb & 1);
        }
        EXPECT_EQ(predictionsOver(*a, 331), predictionsOver(*b, 331))
            << bpred::predictorKindName(kind);
        EXPECT_EQ(a->predictions(), b->predictions());
        EXPECT_EQ(a->mispredictions(), b->mispredictions());
    }
}

// --- TAGE reference-model checks -------------------------------------

TEST(TageTest, LearnsAlwaysTakenAndAlwaysNotTaken)
{
    bpred::Tage t(1024, 256);
    for (int i = 0; i < 64; i++) {
        t.update(100, true);
        t.update(200, false);
    }
    EXPECT_TRUE(t.predict(100));
    EXPECT_FALSE(t.predict(200));
}

TEST(TageTest, TaggedTablesCaptureLoopExitsBimodalCannot)
{
    // Period-8 loop branch: taken 7 times, then one exit. A bimodal
    // counter saturates taken and eats the exit every period
    // (~12.5% mispredicts); TAGE's shortest history (4 bits) can
    // distinguish the pre-exit history once an entry allocates.
    bpred::Tage t(4096, 1024);
    int correct = 0;
    const int kIters = 8000, kWarm = 2000;
    for (int i = 0; i < kIters; i++) {
        bool taken = (i % 8) != 7;
        bool pred = t.predictAndTrain(64, taken);
        if (i >= kWarm && pred == taken)
            correct++;
    }
    double acc = static_cast<double>(correct) / (kIters - kWarm);
    EXPECT_GT(acc, 0.97) << "accuracy " << acc;
}

TEST(TageTest, LongHistoryCorrelationReachesDeepTables)
{
    // The branch repeats a fixed 48-bit pattern: only tables with
    // history >= pattern awareness can track it, so high accuracy
    // proves the geometric ladder and folded histories work.
    const uint64_t pattern = 0xB59A3C6D72E1ull;    // 48 bits
    bpred::Tage t(4096, 1024);
    int correct = 0;
    const int kIters = 48 * 400, kWarm = 48 * 150;
    for (int i = 0; i < kIters; i++) {
        bool taken = (pattern >> (i % 48)) & 1;
        bool pred = t.predictAndTrain(64, taken);
        if (i >= kWarm && pred == taken)
            correct++;
    }
    double acc = static_cast<double>(correct) / (kIters - kWarm);
    EXPECT_GT(acc, 0.95) << "accuracy " << acc;
}

TEST(TageTest, RandomStreamStaysNearChanceWithoutFalseConfidence)
{
    bpred::Tage t(1024, 256);
    Rng rng(7);
    for (int i = 0; i < 20000; i++) {
        uint64_t r = rng.next();
        t.predictAndTrain(4 * (r % 401), (r >> 13) & 1);
    }
    // An unlearnable stream must hover around 50% — far from both
    // perfect (which would mean leaking the answer) and zero.
    double rate = t.mispredictRate();
    EXPECT_GT(rate, 0.35);
    EXPECT_LT(rate, 0.65);
    EXPECT_EQ(t.predictions(), 20000u);
}

TEST(TageTest, UsefulnessHalvingKeepsAllocationAlive)
{
    // Drive past the reset period with a learnable stream; the
    // predictor must stay accurate after u-counters halve (a botched
    // reset would wipe provider entries or wedge allocation).
    bpred::Tage t(1024, 256);
    int late_wrong = 0;
    const int kIters = 300 * 1024;
    for (int i = 0; i < kIters; i++) {
        bool taken = (i % 4) != 3;
        bool pred = t.predictAndTrain(128, taken);
        if (i >= kIters - 4096 && pred != taken)
            late_wrong++;
    }
    EXPECT_LT(late_wrong, 64);
}

// --- Perceptron reference-model checks -------------------------------

TEST(PerceptronTest, LearnsAlwaysTakenAndAlwaysNotTaken)
{
    bpred::Perceptron p(1024);
    for (int i = 0; i < 64; i++) {
        p.update(100, true);
        p.update(200, false);
    }
    EXPECT_TRUE(p.predict(100));
    EXPECT_FALSE(p.predict(200));
}

TEST(PerceptronTest, LearnsLinearlySeparableHistoryCorrelation)
{
    // Branch B mirrors the direction A had two steps earlier — a
    // single-history-bit function, the canonical linearly separable
    // case a perceptron must nail.
    bpred::Perceptron p(4096);
    Rng rng(99);
    bool a2 = false, a1 = false;
    int correct = 0;
    const int kIters = 6000, kWarm = 2000;
    for (int i = 0; i < kIters; i++) {
        bool a0 = rng.next() & 1;
        p.predictAndTrain(10, a0);
        bool b_dir = a2;
        bool pred = p.predictAndTrain(20, b_dir);
        if (i >= kWarm && pred == b_dir)
            correct++;
        a2 = a1;
        a1 = a0;
    }
    double acc = static_cast<double>(correct) / (kIters - kWarm);
    EXPECT_GT(acc, 0.95) << "accuracy " << acc;
}

TEST(PerceptronTest, WeightsSaturateInsteadOfWrapping)
{
    // A long monotone stream drives weights to the clamp; a wrap
    // would flip the prediction.
    bpred::Perceptron p(256);
    for (int i = 0; i < 100000; i++)
        p.predictAndTrain(100, true);
    EXPECT_TRUE(p.predict(100));
    for (int i = 0; i < 2000; i++)
        p.predictAndTrain(100, false);
    EXPECT_FALSE(p.predict(100));
}

// --- Hybrid behind the seam (satellite: fused==split property) -------

TEST(HybridSeamTest, FusedEqualsSplitStateAndCounters)
{
    // Lock Hybrid::predictAndTrain to the split pair on randomized
    // streams: predictions, both stat counters, and what both
    // components and the selector predict at every pc of the stream
    // must agree.
    bpred::Hybrid fused(8 * 1024, 4 * 1024);
    bpred::Hybrid split(8 * 1024, 4 * 1024);
    Rng rng(0xfeedface);
    for (int i = 0; i < 30000; i++) {
        uint64_t r = rng.next();
        uint64_t pc = 4 * (r % 1511);
        bool taken = (r >> 21) & 1;
        bool a = fused.predictAndTrain(pc, taken);
        bool b = split.predict(pc);
        split.update(pc, taken);
        ASSERT_EQ(a, b) << "diverged at step " << i;
        if (i % 5000 == 4999)
            ASSERT_EQ(predictionsOver(fused, 1511),
                      predictionsOver(split, 1511))
                << "state diverged by step " << i;
    }
    EXPECT_EQ(fused.predictions(), split.predictions());
    EXPECT_EQ(fused.mispredictions(), split.mispredictions());
    EXPECT_EQ(predictionsOver(fused, 1511), predictionsOver(split, 1511));
    EXPECT_EQ(predictionsOver(fused.gshare(), 1511),
              predictionsOver(split.gshare(), 1511));
    EXPECT_EQ(predictionsOver(fused.pas(), 1511),
              predictionsOver(split.pas(), 1511));
}

TEST(HybridSeamTest, ReportsItsKindName)
{
    bpred::Hybrid h(1024, 512);
    EXPECT_STREQ(h.name(), "hybrid");
    const bpred::DirectionPredictor &base = h;
    EXPECT_STREQ(base.name(), "hybrid");
}

} // namespace
