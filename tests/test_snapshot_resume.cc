/**
 * @file
 * Whole-machine snapshot/resume tests: the keystone byte-identity
 * property, snapshot determinism, warmup fan-out across modes, and
 * rejection of mismatched programs/configs/documents.
 */

#include <gtest/gtest.h>

#include <string>

#include "isa/opcode.hh"
#include "sim/golden.hh"
#include "sim/metrics.hh"
#include "sim/sim_error.hh"
#include "sim/sim_runner.hh"
#include "sim/snapshot.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

workloads::WorkloadInfo
findWorkload(const std::string &name)
{
    for (const auto &info : workloads::allWorkloads())
        if (info.name == name)
            return info;
    ADD_FAILURE() << "workload " << name << " not registered";
    return workloads::allWorkloads().front();
}

sim::MachineConfig
testConfig(sim::Mode mode, uint64_t sample_interval = 0)
{
    sim::MachineConfig cfg = sim::goldenMachineConfig();
    cfg.mode = mode;
    cfg.sampleInterval = sample_interval;
    return cfg;
}

std::string
goldenText(const std::string &name, const sim::Stats &stats)
{
    return sim::goldenJson({name, sim::kGoldenConfigName, stats});
}

TEST(SnapshotResume, ResumeIsByteIdenticalToStraightThrough)
{
    isa::Program prog = findWorkload("comp").make({});
    sim::MachineConfig cfg =
        testConfig(sim::Mode::Microthread, /*sample_interval=*/500);

    sim::RunArtifacts straightArt;
    sim::Stats straight = sim::runProgramChecked(
        prog, cfg, "comp", 0, nullptr, &straightArt,
        /*snapshot_at_cycle=*/5000);
    ASSERT_FALSE(straightArt.snapshot.empty());
    ASSERT_EQ(straightArt.snapshotCycle, 5000u);
    EXPECT_EQ(sim::snapshotCycle(straightArt.snapshot), 5000u);
    EXPECT_EQ(sim::snapshotLabel(straightArt.snapshot), "comp");

    sim::RunArtifacts resumedArt;
    sim::Stats resumed = sim::runProgramChecked(
        prog, cfg, "comp", 0, nullptr, &resumedArt, 0,
        &straightArt.snapshot);

    EXPECT_EQ(goldenText("comp", resumed), goldenText("comp", straight));
    EXPECT_EQ(sim::seriesJson(resumedArt.series),
              sim::seriesJson(straightArt.series));
}

TEST(SnapshotResume, SnapshotsAreDeterministicAndResaveStable)
{
    isa::Program prog = findWorkload("comp").make({});
    sim::MachineConfig cfg = testConfig(sim::Mode::Microthread);

    // Two independent straight runs checkpoint byte-identically.
    sim::RunArtifacts a, b;
    sim::runProgramChecked(prog, cfg, "comp", 0, nullptr, &a, 5000);
    sim::runProgramChecked(prog, cfg, "comp", 0, nullptr, &b, 5000);
    ASSERT_FALSE(a.snapshot.empty());
    EXPECT_EQ(a.snapshot, b.snapshot);

    // Restore-then-recheckpoint at a later cycle matches the
    // straight run's checkpoint at that cycle: restore loses nothing.
    sim::RunArtifacts straightLater, resumedLater;
    sim::runProgramChecked(prog, cfg, "comp", 0, nullptr,
                           &straightLater, 7000);
    sim::runProgramChecked(prog, cfg, "comp", 0, nullptr,
                           &resumedLater, 7000, &a.snapshot);
    ASSERT_FALSE(straightLater.snapshot.empty());
    EXPECT_EQ(resumedLater.snapshot, straightLater.snapshot);
}

TEST(SnapshotResume, WarmupSnapshotFansOutAcrossModes)
{
    isa::Program prog = findWorkload("comp").make({});
    sim::MachineConfig warmup = testConfig(sim::Mode::Baseline);

    sim::RunArtifacts art;
    sim::Stats baseline = sim::runProgramChecked(
        prog, warmup, "comp", 0, nullptr, &art, 5000);
    ASSERT_FALSE(art.snapshot.empty());

    const sim::Mode fan[] = {sim::Mode::OracleDifficultPath,
                             sim::Mode::Microthread,
                             sim::Mode::OracleAllBranches};
    for (sim::Mode mode : fan) {
        sim::MachineConfig cfg = testConfig(mode);
        sim::Stats stats = sim::runProgramChecked(
            prog, cfg, "comp/fanout", 0, nullptr, nullptr, 0,
            &art.snapshot);
        // The machine fetches only correct-path instructions, so the
        // committed stream is mode-invariant even across a restore.
        EXPECT_EQ(stats.retiredInsts, baseline.retiredInsts)
            << sim::modeName(mode);
        EXPECT_EQ(stats.condBranches, baseline.condBranches)
            << sim::modeName(mode);
    }
}

TEST(SnapshotResume, PruningSnapshotsCarryThePredictors)
{
    isa::Program prog = findWorkload("comp").make({});
    sim::MachineConfig cfg = testConfig(sim::Mode::Microthread);
    cfg.builder.pruningEnabled = true;

    // The value and address predictors exist only with pruning, and
    // a resume restores what they learned: its checkpoint at a later
    // cycle and its final stats match the straight run's.
    sim::RunArtifacts early, straightLater, resumedLater;
    sim::runProgramChecked(prog, cfg, "comp", 0, nullptr, &early, 5000);
    ASSERT_FALSE(early.snapshot.empty());
    EXPECT_NE(early.snapshot.find("\"vpred\""), std::string::npos);
    sim::Stats straight = sim::runProgramChecked(
        prog, cfg, "comp", 0, nullptr, &straightLater, 7000);
    sim::Stats resumed = sim::runProgramChecked(
        prog, cfg, "comp", 0, nullptr, &resumedLater, 7000,
        &early.snapshot);
    EXPECT_EQ(resumedLater.snapshot, straightLater.snapshot);
    EXPECT_EQ(goldenText("comp", resumed), goldenText("comp", straight));

    sim::RunArtifacts plain;
    sim::runProgramChecked(prog, testConfig(sim::Mode::Microthread),
                           "comp", 0, nullptr, &plain, 5000);
    ASSERT_FALSE(plain.snapshot.empty());
    EXPECT_EQ(plain.snapshot.find("\"vpred\""), std::string::npos);
}

TEST(SnapshotResume, RejectsPrunedRoutineWithoutPruning)
{
    // Spawning a Vp/Ap op reads predictors a core without pruning
    // does not have: a document that puts one in its MicroRAM is
    // refused, not run.
    isa::Program prog = findWorkload("comp").make({});
    sim::MachineConfig cfg = testConfig(sim::Mode::Microthread);
    sim::RunArtifacts art;
    sim::runProgramChecked(prog, cfg, "comp", 0, nullptr, &art, 20000);
    std::string doc = art.snapshot;
    const size_t ram = doc.find("\"microRam\"");
    ASSERT_NE(ram, std::string::npos);
    const std::string key = "\"inst\":{\"op\":";
    const size_t op = doc.find(key, ram);
    ASSERT_NE(op, std::string::npos) << "no routine in the MicroRAM";
    const size_t value = op + key.size();
    doc.replace(value, doc.find(',', value) - value,
                std::to_string(static_cast<unsigned>(isa::Opcode::VpInst)));
    try {
        sim::runProgramChecked(prog, cfg, "comp", 0, nullptr, nullptr, 0,
                               &doc);
        FAIL() << "expected SimError(ParseError)";
    } catch (const sim::SimError &err) {
        EXPECT_EQ(err.code(), sim::ErrorCode::ParseError) << err.what();
    }
}

TEST(SnapshotResume, RejectsWrongProgram)
{
    isa::Program comp = findWorkload("comp").make({});
    isa::Program go = findWorkload("go").make({});
    sim::MachineConfig cfg = testConfig(sim::Mode::Microthread);

    sim::RunArtifacts art;
    sim::runProgramChecked(comp, cfg, "comp", 0, nullptr, &art, 5000);
    ASSERT_FALSE(art.snapshot.empty());

    try {
        sim::runProgramChecked(go, cfg, "go", 0, nullptr, nullptr, 0,
                               &art.snapshot);
        FAIL() << "expected SimError(ConfigInvalid)";
    } catch (const sim::SimError &err) {
        EXPECT_EQ(err.code(), sim::ErrorCode::ConfigInvalid);
    }
}

TEST(SnapshotResume, RejectsStructurallyDifferentConfig)
{
    isa::Program prog = findWorkload("comp").make({});
    sim::MachineConfig cfg = testConfig(sim::Mode::Microthread);

    sim::RunArtifacts art;
    sim::runProgramChecked(prog, cfg, "comp", 0, nullptr, &art, 5000);
    ASSERT_FALSE(art.snapshot.empty());

    sim::MachineConfig narrower = cfg;
    narrower.windowSize /= 2;
    try {
        sim::runProgramChecked(prog, narrower, "comp", 0, nullptr,
                               nullptr, 0, &art.snapshot);
        FAIL() << "expected SimError(ConfigInvalid)";
    } catch (const sim::SimError &err) {
        EXPECT_EQ(err.code(), sim::ErrorCode::ConfigInvalid);
    }
}

TEST(SnapshotResume, RejectsMalformedDocument)
{
    isa::Program prog = findWorkload("comp").make({});
    sim::MachineConfig cfg = testConfig(sim::Mode::Microthread);
    std::string garbage = "{\"schema\": \"ssmt-snapshot-v1\", ";
    try {
        sim::runProgramChecked(prog, cfg, "comp", 0, nullptr, nullptr,
                               0, &garbage);
        FAIL() << "expected SimError(ParseError)";
    } catch (const sim::SimError &err) {
        EXPECT_EQ(err.code(), sim::ErrorCode::ParseError);
    }
}

} // namespace

