/**
 * @file
 * Machine-level tests for the pluggable direction-predictor backends:
 * the `predictor` knob must reach the front end, every backend must
 * keep the simulator deterministic (golden byte-identity across runs
 * and --jobs counts), and the configFingerprint must name the
 * backend, so a result stored under one is never served for another.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bpred/direction_predictor.hh"
#include "sim/batch_runner.hh"
#include "sim/golden.hh"
#include "sim/machine_config.hh"
#include "sim/sim_error.hh"
#include "sim/sim_runner.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;
using bpred::PredictorKind;

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
zooConfig(PredictorKind kind, sim::Mode mode = sim::Mode::Microthread)
{
    sim::MachineConfig cfg = sim::goldenMachineConfig();
    cfg.mode = mode;
    cfg.predictor = kind;
    return cfg;
}

std::string
goldenText(const std::string &name, const sim::Stats &stats)
{
    return sim::goldenJson({name, sim::kGoldenConfigName, stats});
}

TEST(PredictorZoo, FingerprintNamesTheBackend)
{
    for (PredictorKind kind : bpred::allPredictorKinds()) {
        std::string fp = sim::configFingerprint(zooConfig(kind));
        std::string want =
            std::string("predictor=") + bpred::predictorKindName(kind) +
            ";";
        EXPECT_NE(fp.find(want), std::string::npos)
            << fp << " lacks " << want;
    }
    // The knob must actually separate fingerprints.
    EXPECT_NE(sim::configFingerprint(zooConfig(PredictorKind::Tage)),
              sim::configFingerprint(zooConfig(PredictorKind::Hybrid)));
    sim::MachineConfig wide = zooConfig(PredictorKind::Hybrid);
    wide.bpredHistoryBits = 24;
    EXPECT_NE(sim::configFingerprint(wide),
              sim::configFingerprint(zooConfig(PredictorKind::Hybrid)));
}

TEST(PredictorZoo, ValidateRejectsBadBpredGeometry)
{
    sim::MachineConfig cfg = zooConfig(PredictorKind::Hybrid);
    EXPECT_TRUE(cfg.validate().empty());

    sim::MachineConfig bad = cfg;
    bad.bpredHistoryBits = 65;
    EXPECT_FALSE(bad.validate().empty());

    bad = cfg;
    bad.bpredComponentEntries = 1000;   // not a power of two
    EXPECT_FALSE(bad.validate().empty());

    bad = cfg;
    bad.rasDepth = 0;
    EXPECT_FALSE(bad.validate().empty());
    try {
        bad.validateOrThrow();
        FAIL() << "expected SimError(ConfigInvalid)";
    } catch (const sim::SimError &err) {
        EXPECT_EQ(err.code(), sim::ErrorCode::ConfigInvalid);
    }
}

TEST(PredictorZoo, EveryBackendRunsDeterministically)
{
    isa::Program prog = findWorkload("comp").make({});
    for (PredictorKind kind : bpred::allPredictorKinds()) {
        sim::MachineConfig cfg = zooConfig(kind);
        sim::Stats a = sim::runProgramChecked(prog, cfg, "comp");
        sim::Stats b = sim::runProgramChecked(prog, cfg, "comp");
        EXPECT_EQ(goldenText("comp", a), goldenText("comp", b))
            << bpred::predictorKindName(kind);
        // The backend is live: the machine saw branches and the
        // committed instruction stream is backend-invariant.
        EXPECT_GT(a.condBranches, 0u);
    }
}

TEST(PredictorZoo, CommittedStreamIsBackendInvariant)
{
    // Direction prediction only steers speculation; every backend
    // must retire the same architectural work.
    isa::Program prog = findWorkload("go").make({});
    sim::Stats base =
        sim::runProgramChecked(prog, zooConfig(PredictorKind::Hybrid),
                               "go");
    for (PredictorKind kind :
         {PredictorKind::Tage, PredictorKind::Perceptron}) {
        sim::Stats s =
            sim::runProgramChecked(prog, zooConfig(kind), "go");
        EXPECT_EQ(s.retiredInsts, base.retiredInsts)
            << bpred::predictorKindName(kind);
        EXPECT_EQ(s.condBranches, base.condBranches)
            << bpred::predictorKindName(kind);
    }
}

TEST(PredictorZoo, BatchesAgreeAcrossJobCountsPerBackend)
{
    const char *names[] = {"comp", "li"};
    for (PredictorKind kind :
         {PredictorKind::Tage, PredictorKind::Perceptron}) {
        sim::MachineConfig cfg = zooConfig(kind);
        std::vector<sim::BatchJob> batch;
        for (const char *name : names)
            batch.push_back({name, findWorkload(name).make({}), cfg});

        std::vector<sim::BatchResult> serial =
            sim::BatchRunner(1).run(batch, {});
        std::vector<sim::BatchResult> parallel =
            sim::BatchRunner(4).run(batch, {});
        for (size_t i = 0; i < batch.size(); i++) {
            ASSERT_TRUE(serial[i].ok()) << serial[i].error;
            ASSERT_TRUE(parallel[i].ok()) << parallel[i].error;
            EXPECT_EQ(goldenText(batch[i].name, parallel[i].stats),
                      goldenText(batch[i].name, serial[i].stats))
                << bpred::predictorKindName(kind);
        }
    }
}

} // namespace
