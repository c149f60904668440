/**
 * @file
 * Tests for Stats derived metrics, MachineConfig reporting, and the
 * MachineConfig field table behind configFingerprint and the
 * key=value overrides.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/machine_config.hh"
#include "sim/sim_error.hh"
#include "sim/sim_runner.hh"
#include "sim/stats.hh"

namespace
{

using namespace ssmt::sim;

TEST(StatsTest, IpcHandlesZeroCycles)
{
    Stats s;
    EXPECT_EQ(s.ipc(), 0.0);
    s.cycles = 100;
    s.retiredInsts = 250;
    EXPECT_DOUBLE_EQ(s.ipc(), 2.5);
}

TEST(StatsTest, MispredictRates)
{
    Stats s;
    s.condBranches = 90;
    s.condHwMispredicts = 9;
    s.indirectBranches = 10;
    s.indirectHwMispredicts = 1;
    EXPECT_DOUBLE_EQ(s.hwMispredictRate(), 0.10);
    s.usedMispredicts = 5;
    EXPECT_DOUBLE_EQ(s.usedMispredictRate(), 0.05);
}

TEST(StatsTest, AbortRates)
{
    Stats s;
    s.spawnAttempts = 100;
    s.spawnAbortPrefix = 60;
    s.spawnNoContext = 7;
    s.spawns = 33;
    s.abortsPostSpawn = 22;
    EXPECT_DOUBLE_EQ(s.preAllocationAbortRate(), 0.67);
    EXPECT_NEAR(s.postSpawnAbortRate(), 0.6667, 1e-3);
}

TEST(StatsTest, ReportMentionsKeyFields)
{
    Stats s;
    s.cycles = 10;
    s.retiredInsts = 20;
    std::string rep = s.report();
    EXPECT_NE(rep.find("IPC"), std::string::npos);
    EXPECT_NE(rep.find("retired insts"), std::string::npos);
}

TEST(ConfigTest, DefaultsMatchTable3)
{
    MachineConfig cfg;
    EXPECT_EQ(cfg.fetchWidth, 16);
    EXPECT_EQ(cfg.windowSize, 512);
    EXPECT_EQ(cfg.numFUs, 16);
    EXPECT_EQ(cfg.maxBranchPredsPerCycle, 3);
    EXPECT_EQ(cfg.frontendDepth + cfg.redirectPenalty, 20);
    EXPECT_EQ(cfg.mem.l1dSize, 64u * 1024);
    EXPECT_EQ(cfg.mem.l2Size, 1024u * 1024);
    EXPECT_EQ(cfg.bpredComponentEntries, 128u * 1024);
    EXPECT_EQ(cfg.bpredSelectorEntries, 64u * 1024);
    EXPECT_EQ(cfg.rasDepth, 32u);
}

TEST(ConfigTest, MechanismDefaultsMatchSection5)
{
    MachineConfig cfg;
    EXPECT_EQ(cfg.pathN, 10);
    EXPECT_DOUBLE_EQ(cfg.difficultyThreshold, 0.10);
    EXPECT_EQ(cfg.pathCacheEntries, 8192u);
    EXPECT_EQ(cfg.trainingInterval, 32u);
    EXPECT_EQ(cfg.microRamEntries, 8192u);
    EXPECT_EQ(cfg.predictionCacheEntries, 128u);
    EXPECT_EQ(cfg.prbEntries, 512u);
    EXPECT_EQ(cfg.buildLatency, 100);
}

TEST(ConfigTest, ToStringMentionsMode)
{
    MachineConfig cfg;
    cfg.mode = Mode::Microthread;
    EXPECT_NE(cfg.toString().find("microthread"), std::string::npos);
    EXPECT_NE(cfg.toString().find("512-entry window"),
              std::string::npos);
}

TEST(ConfigTest, ModeNames)
{
    EXPECT_STREQ(modeName(Mode::Baseline), "baseline");
    EXPECT_STREQ(modeName(Mode::OracleDifficultPath),
                 "oracle-difficult-path");
    EXPECT_STREQ(modeName(Mode::Microthread), "microthread");
    EXPECT_STREQ(modeName(Mode::MicrothreadNoPredictions),
                 "microthread-no-predictions");
}

/** Fingerprint bytes that existing result stores and snapshots
 *  hash: the field table must reproduce them exactly. */
const char kDefaultFingerprint[] =
    "v1;fetchWidth=16;maxBranchPredsPerCycle=3;"
    "maxICacheLinesPerCycle=3;frontendDepth=8;redirectPenalty=12;"
    "windowSize=512;numFUs=16;l1dReadPorts=4;l1iSize=65536;"
    "l1iAssoc=4;l1dSize=65536;l1dAssoc=2;l2Size=1048576;l2Assoc=8;"
    "lineBytes=64;l1Latency=3;l2Latency=6;dramLatency=100;"
    "bpredComponentEntries=131072;bpredSelectorEntries=65536;"
    "targetCacheEntries=65536;rasDepth=32;predictor=hybrid;"
    "bpredHistoryBits=0;pathN=10;difficultyThreshold=0.1;"
    "pathCacheEntries=8192;pathCacheAssoc=8;trainingInterval=32;"
    "microRamEntries=8192;predictionCacheEntries=128;"
    "prbEntries=512;mcbEntries=64;moveElimination=1;"
    "constantPropagation=1;pruningEnabled=0;numMicrocontexts=8;"
    "buildLatency=100;rebuildOnViolation=1;throttleEnabled=0;"
    "throttleWindow=64;throttleMinUseful=0.02;"
    "staticDifficultHints=;vpredEntries=4096;vpredConfMax=7;"
    "vpredConfThresh=4;vpInstLatency=2;sampleInterval=0;"
    "faultSite=none;faultSeed=1;faultCount=0;faultStartCycle=0;"
    "faultPeriod=200;";

/** One non-default value of every kind: an enum, a bool, a hint
 *  list, a fault site and a double. */
MachineConfig
oddConfig()
{
    MachineConfig cfg;
    cfg.predictor = ssmt::bpred::PredictorKind::Tage;
    cfg.builder.pruningEnabled = true;
    cfg.staticDifficultHints = {3, 5};
    cfg.faults.site = FaultSite::PredCacheFlip;
    cfg.difficultyThreshold = 0.05;
    return cfg;
}

const char kOddFingerprint[] =
    "v1;fetchWidth=16;maxBranchPredsPerCycle=3;"
    "maxICacheLinesPerCycle=3;frontendDepth=8;redirectPenalty=12;"
    "windowSize=512;numFUs=16;l1dReadPorts=4;l1iSize=65536;"
    "l1iAssoc=4;l1dSize=65536;l1dAssoc=2;l2Size=1048576;l2Assoc=8;"
    "lineBytes=64;l1Latency=3;l2Latency=6;dramLatency=100;"
    "bpredComponentEntries=131072;bpredSelectorEntries=65536;"
    "targetCacheEntries=65536;rasDepth=32;predictor=tage;"
    "bpredHistoryBits=0;pathN=10;difficultyThreshold=0.05;"
    "pathCacheEntries=8192;pathCacheAssoc=8;trainingInterval=32;"
    "microRamEntries=8192;predictionCacheEntries=128;"
    "prbEntries=512;mcbEntries=64;moveElimination=1;"
    "constantPropagation=1;pruningEnabled=1;numMicrocontexts=8;"
    "buildLatency=100;rebuildOnViolation=1;throttleEnabled=0;"
    "throttleWindow=64;throttleMinUseful=0.02;"
    "staticDifficultHints=3,5;vpredEntries=4096;vpredConfMax=7;"
    "vpredConfThresh=4;vpInstLatency=2;sampleInterval=0;"
    "faultSite=pred-cache-flip;faultSeed=1;faultCount=0;"
    "faultStartCycle=0;faultPeriod=200;";

TEST(ConfigTableTest, FingerprintBytesArePinned)
{
    EXPECT_EQ(configFingerprint(MachineConfig{}), kDefaultFingerprint);
    EXPECT_EQ(configFingerprint(oddConfig()), kOddFingerprint);
}

TEST(ConfigTableTest, FingerprintEntriesApplyBack)
{
    // Printing and parsing share one table and one value syntax:
    // every key=value of a fingerprint applied to a default config
    // rebuilds that fingerprint.
    for (const MachineConfig &want : {MachineConfig{}, oddConfig()}) {
        const std::string fp = configFingerprint(want);
        ASSERT_EQ(fp.rfind("v1;", 0), 0u);
        MachineConfig got;
        size_t entries = 0;
        for (size_t pos = 3; pos < fp.size();) {
            const size_t semi = fp.find(';', pos);
            applyConfigSetting(got, fp.substr(pos, semi - pos));
            entries++;
            pos = semi + 1;
        }
        EXPECT_EQ(entries, 53u);
        EXPECT_EQ(configFingerprint(got), fp);
    }
}

TEST(ConfigTableTest, SettingsParseModeAndEveryKind)
{
    MachineConfig cfg;
    applyConfigSetting(cfg, "mode=microthread");
    applyConfigSetting(cfg, "pathN=4");
    applyConfigSetting(cfg, "l2Latency=9");
    applyConfigSetting(cfg, "predictor=perceptron");
    applyConfigSetting(cfg, "rebuildOnViolation=0");
    applyConfigSetting(cfg, "throttleMinUseful=0.125");
    applyConfigSetting(cfg, "staticDifficultHints=7");
    applyConfigSetting(cfg, "faultSite=spawn-drop");
    EXPECT_EQ(cfg.mode, Mode::Microthread);
    EXPECT_EQ(cfg.pathN, 4);
    EXPECT_EQ(cfg.mem.l2Latency, 9);
    EXPECT_EQ(cfg.predictor, ssmt::bpred::PredictorKind::Perceptron);
    EXPECT_FALSE(cfg.rebuildOnViolation);
    EXPECT_EQ(cfg.throttleMinUseful, 0.125);
    EXPECT_EQ(cfg.staticDifficultHints, std::vector<uint64_t>{7});
    EXPECT_EQ(cfg.faults.site, FaultSite::SpawnDrop);
    applyConfigSetting(cfg, "staticDifficultHints=");
    EXPECT_TRUE(cfg.staticDifficultHints.empty());
}

TEST(ConfigTableTest, BadSettingsNameTheEntry)
{
    for (const char *entry :
         {"noSuchKnob=1", "pathN", "pathN=", "pathN=4x", "pathN=+4",
          "numMicrocontexts=-1", "rasDepth=99999999999",
          "pruningEnabled=2", "pruningEnabled=true",
          "predictor=gshare", "faultSite=everywhere",
          "staticDifficultHints=3,", "staticDifficultHints=,3",
          "difficultyThreshold=nan", "difficultyThreshold=0.1.2",
          "mode=fast"}) {
        SCOPED_TRACE(entry);
        MachineConfig cfg;
        try {
            applyConfigSetting(cfg, entry);
            ADD_FAILURE() << "accepted";
        } catch (const SimError &err) {
            EXPECT_EQ(err.code(), ErrorCode::ConfigInvalid);
            EXPECT_NE(err.context().find(entry), std::string::npos)
                << err.context();
        }
    }
}

TEST(ConfigTableTest, DistinctThresholdsGetDistinctFingerprints)
{
    // Six significant digits would print both as 0.1 and let them
    // share a store key; the shortest round-trip form keeps them
    // apart and still prints the repo's thresholds as before.
    MachineConfig near;
    near.difficultyThreshold = 0.1000001;
    EXPECT_NE(configFingerprint(near), configFingerprint(MachineConfig{}));
    MachineConfig back;
    applyConfigSetting(back, "difficultyThreshold=0.1000001");
    EXPECT_EQ(back.difficultyThreshold, 0.1000001);
    const std::pair<double, const char *> printed[] = {
        {0.02, "0.02"}, {0.05, "0.05"}, {0.15, "0.15"}};
    for (const auto &[value, text] : printed) {
        MachineConfig cfg;
        cfg.difficultyThreshold = value;
        EXPECT_NE(configFingerprint(cfg).find(
                      std::string(";difficultyThreshold=") + text + ";"),
                  std::string::npos)
            << text;
    }
}

TEST(RunnerTest, GeomeanAndMean)
{
    std::vector<double> v = {1.0, 4.0};
    EXPECT_DOUBLE_EQ(geomean(v), 2.0);
    EXPECT_DOUBLE_EQ(mean(v), 2.5);
    EXPECT_EQ(geomean({}), 0.0);
    EXPECT_EQ(mean({}), 0.0);
}

} // namespace
