/**
 * @file
 * Tests for the composite front-end predictor.
 */

#include <gtest/gtest.h>

#include "bpred/frontend_predictor.hh"

namespace
{

using namespace ssmt::isa;
using ssmt::bpred::FrontEndPredictor;
using ssmt::bpred::HwPrediction;

Inst
condBr(RegIndex a, RegIndex b, int64_t target)
{
    return Inst{Opcode::Beq, kNoReg, a, b, target};
}

TEST(FrontEndTest, DirectJumpsNeverMispredict)
{
    FrontEndPredictor fep(1024, 1024, 1024, 8);
    Inst j{Opcode::J, kNoReg, kNoReg, kNoReg, 7};
    HwPrediction pred = fep.predictAndTrain(3, j, true, 7);
    EXPECT_TRUE(pred.correct);
    EXPECT_EQ(pred.target, 7u);
}

TEST(FrontEndTest, CallReturnPairPredictedByRas)
{
    FrontEndPredictor fep(1024, 1024, 1024, 8);
    Inst call{Opcode::Jal, kRegLink, kNoReg, kNoReg, 100};
    Inst ret{Opcode::Jr, kNoReg, kRegLink, kNoReg, 0};
    fep.predictAndTrain(10, call, true, 100);
    HwPrediction pred = fep.predictAndTrain(105, ret, true, 11);
    EXPECT_TRUE(pred.correct);
    EXPECT_EQ(pred.target, 11u);
}

TEST(FrontEndTest, NestedCallsReturnInOrder)
{
    FrontEndPredictor fep(1024, 1024, 1024, 8);
    Inst call{Opcode::Jal, kRegLink, kNoReg, kNoReg, 0};
    Inst ret{Opcode::Jr, kNoReg, kRegLink, kNoReg, 0};
    fep.predictAndTrain(1, call, true, 100);
    fep.predictAndTrain(101, call, true, 200);
    EXPECT_TRUE(fep.predictAndTrain(205, ret, true, 102).correct);
    EXPECT_TRUE(fep.predictAndTrain(105, ret, true, 2).correct);
}

TEST(FrontEndTest, NonReturnIndirectUsesTargetCache)
{
    FrontEndPredictor fep(1024, 1024, 1024, 8);
    Inst jr{Opcode::Jr, kNoReg, 5, kNoReg, 0};  // not the link reg
    // The target cache indexes with a target-history hash, so a
    // stable target takes a handful of repeats to converge.
    for (int i = 0; i < 40; i++)
        fep.predictAndTrain(30, jr, true, 777);
    uint64_t miss_before = fep.indirectMispredicts();
    HwPrediction pred = fep.predictAndTrain(30, jr, true, 777);
    EXPECT_TRUE(pred.correct);
    EXPECT_EQ(fep.indirectMispredicts(), miss_before);
    EXPECT_EQ(fep.indirectPredictions(), 41u);
}

TEST(FrontEndTest, ConditionalBiasLearned)
{
    FrontEndPredictor fep(1024, 1024, 1024, 8);
    Inst br = condBr(1, 2, 50);
    for (int i = 0; i < 64; i++)
        fep.predictAndTrain(9, br, true, 50);
    HwPrediction pred = fep.predictAndTrain(9, br, true, 50);
    EXPECT_TRUE(pred.taken);
    EXPECT_TRUE(pred.correct);
    EXPECT_GT(fep.condPredictions(), 0u);
}

TEST(FrontEndTest, MispredictStatsCount)
{
    FrontEndPredictor fep(1024, 1024, 1024, 8);
    Inst br = condBr(1, 2, 50);
    for (int i = 0; i < 32; i++)
        fep.predictAndTrain(9, br, true, 50);
    uint64_t miss_before = fep.condMispredicts();
    fep.predictAndTrain(9, br, false, 50);
    EXPECT_EQ(fep.condMispredicts(), miss_before + 1);
}

TEST(FrontEndTest, PredictedNotTakenBranchHasFallThroughSemantics)
{
    FrontEndPredictor fep(1024, 1024, 1024, 8);
    Inst br = condBr(1, 2, 50);
    for (int i = 0; i < 64; i++)
        fep.predictAndTrain(9, br, false, 50);
    HwPrediction pred = fep.predictAndTrain(9, br, false, 50);
    EXPECT_FALSE(pred.taken);
    EXPECT_TRUE(pred.correct);
}

} // namespace
