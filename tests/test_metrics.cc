/**
 * @file
 * Tests for the interval time-series metrics layer: sampler
 * semantics, histogram bucketing, end-of-run agreement with the
 * final Stats, determinism across BatchRunner worker counts, the
 * series JSON, and the config-knob validation.
 */

#include <gtest/gtest.h>

#include "cpu/ssmt_core.hh"
#include "sim/batch_runner.hh"
#include "sim/golden.hh"
#include "sim/json_text.hh"
#include "sim/metrics.hh"
#include "sim/sim_runner.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

isa::Program
testProgram()
{
    workloads::SyntheticSpec spec;
    spec.takenPercent = {0, 100, 80, 80};
    spec.iters = 200;
    return workloads::makeSynthetic(spec);
}

TEST(MetricsTest, DisabledSamplerIsInert)
{
    sim::MachineConfig cfg;
    sim::IntervalSampler sampler(0, cfg);
    EXPECT_FALSE(sampler.enabled());
    EXPECT_FALSE(sampler.due(0));
    EXPECT_FALSE(sampler.due(1000));
    EXPECT_FALSE(sampler.series().enabled());
    EXPECT_TRUE(sampler.series().samples.empty());
    EXPECT_TRUE(sampler.series().histograms.empty());
}

TEST(MetricsTest, DueFiresOnMultiplesOnly)
{
    sim::MachineConfig cfg;
    sim::IntervalSampler sampler(100, cfg);
    EXPECT_TRUE(sampler.enabled());
    EXPECT_TRUE(sampler.due(100));
    EXPECT_TRUE(sampler.due(2500 * 100));
    EXPECT_FALSE(sampler.due(101));
    EXPECT_FALSE(sampler.due(99));
}

TEST(MetricsTest, HistogramBucketsAndMoments)
{
    sim::OccupancyHistogram hist("window", 512, 16);
    EXPECT_EQ(hist.name(), "window");
    EXPECT_EQ(hist.capacity(), 512u);
    EXPECT_EQ(hist.bucketWidth(), 33u);     // ceil(513 / 16)
    ASSERT_EQ(hist.buckets().size(), 16u);

    hist.add(0);
    hist.add(32);       // still bucket 0
    hist.add(33);       // bucket 1
    hist.add(512);      // bucket 15
    hist.add(10000);    // above capacity: clamps into the last bucket
    EXPECT_EQ(hist.buckets()[0], 2u);
    EXPECT_EQ(hist.buckets()[1], 1u);
    EXPECT_EQ(hist.buckets()[15], 2u);
    EXPECT_EQ(hist.samples(), 5u);
    EXPECT_EQ(hist.minValue(), 0u);
    EXPECT_EQ(hist.maxValue(), 10000u);
    EXPECT_EQ(hist.sum(), 0u + 32 + 33 + 512 + 10000);
    EXPECT_DOUBLE_EQ(hist.mean(), 10577.0 / 5.0);
}

TEST(MetricsTest, FinalizeReplacesSameCycleCountersKeepsGauges)
{
    sim::MachineConfig cfg;
    sim::IntervalSampler sampler(10, cfg);

    sim::Stats mid{};
    mid.retiredInsts = 5;
    sim::OccupancyGauges live;
    live.prbEntries = 3;
    sampler.sample(10, mid, live);

    sim::Stats fin{};
    fin.retiredInsts = 6;       // finalizeStats filled more counters
    sim::OccupancyGauges drained;   // end-of-run reclaim zeroed fills
    sampler.finalize(10, fin, drained);

    const sim::MetricsSeries &series = sampler.series();
    ASSERT_EQ(series.samples.size(), 1u);
    EXPECT_EQ(series.samples[0].stats.retiredInsts, 6u);
    // The gauge keeps the in-run observation: finalization reclaims
    // structures and must not rewrite what the hook saw.
    EXPECT_EQ(series.samples[0].gauges.prbEntries, 3u);
}

TEST(MetricsTest, FinalizeAppendsOffIntervalPoint)
{
    sim::MachineConfig cfg;
    sim::IntervalSampler sampler(10, cfg);
    sim::Stats s{};
    sampler.sample(10, s, {});
    sampler.finalize(13, s, {});
    ASSERT_EQ(sampler.series().samples.size(), 2u);
    EXPECT_EQ(sampler.series().samples.back().cycle, 13u);
}

TEST(MetricsTest, FinalSampleEqualsEndOfRunStatsByteForByte)
{
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cfg.sampleInterval = 500;
    cpu::SsmtCore core(testProgram(), cfg);
    const sim::Stats &final_stats = core.run();

    const sim::MetricsSeries &series = core.series();
    ASSERT_TRUE(series.enabled());
    ASSERT_FALSE(series.samples.empty());
    EXPECT_EQ(series.samples.back().cycle, final_stats.cycles);
    // Every counter, in canonical order, must agree exactly.
    EXPECT_EQ(sim::flattenStats(series.samples.back().stats),
              sim::flattenStats(final_stats));

    // Histograms: one per gauge, all fed once per sample.
    ASSERT_EQ(series.histograms.size(), 5u);
    for (const sim::OccupancyHistogram &hist : series.histograms) {
        EXPECT_EQ(hist.samples(), series.samples.size())
            << hist.name();
    }
    EXPECT_EQ(series.histograms[0].name(), "prb");
    EXPECT_EQ(series.histograms[4].name(), "window");
    EXPECT_EQ(series.histograms[4].capacity(),
              static_cast<uint64_t>(cfg.windowSize));
}

TEST(MetricsTest, SamplingDoesNotPerturbTiming)
{
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    isa::Program prog = testProgram();

    cpu::SsmtCore off(prog, cfg);
    const sim::Stats off_stats = off.run();
    cfg.sampleInterval = 250;
    cpu::SsmtCore on(prog, cfg);
    const sim::Stats on_stats = on.run();
    EXPECT_EQ(sim::flattenStats(off_stats),
              sim::flattenStats(on_stats));
}

TEST(MetricsTest, SeriesBitIdenticalAcrossWorkerCounts)
{
    // ssmt_trace's path: runProgramChecked with artifacts, one index
    // per run on forEach.
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cfg.sampleInterval = 500;
    isa::Program prog = testProgram();

    auto series_at = [&](unsigned jobs) {
        std::vector<std::string> docs(4);
        sim::BatchRunner(jobs).forEach(docs.size(), [&](size_t i) {
            sim::RunArtifacts artifacts;
            sim::runProgramChecked(prog, cfg, "cell" + std::to_string(i),
                                   0, nullptr, &artifacts);
            docs[i] = sim::seriesDocumentJson(artifacts.series, "", "");
        });
        return docs;
    };
    std::vector<std::string> serial = series_at(1);
    std::vector<std::string> parallel = series_at(4);
    for (size_t i = 0; i < serial.size(); i++) {
        EXPECT_NE(serial[i].find("{\"cycle\": "), std::string::npos);
        EXPECT_EQ(serial[i], parallel[i]) << "run " << i;
    }
}

TEST(MetricsTest, SeriesJsonParsesWithSchemaAndCounters)
{
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cfg.sampleInterval = 500;
    cpu::SsmtCore core(testProgram(), cfg);
    const sim::Stats &stats = core.run();

    // The artifact document parses and carries the run
    // identification, the interval, the samples and the histograms.
    sim::JsonValue root;
    std::string err;
    ASSERT_TRUE(sim::parseJson(
        sim::seriesDocumentJson(core.series(), "wl", "cfg"), root,
        &err))
        << err;
    EXPECT_EQ(root.str("schema"), "ssmt-series-v1");
    EXPECT_EQ(root.str("workload"), "wl");
    EXPECT_EQ(root.str("config"), "cfg");
    EXPECT_EQ(root.u64("interval", 0), 500u);
    const sim::JsonValue *samples = root.find("samples");
    ASSERT_NE(samples, nullptr);
    ASSERT_FALSE(samples->items.empty());
    const sim::JsonValue *counters =
        samples->items.back().find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->u64("cycles", 0), stats.cycles);
    EXPECT_EQ(counters->u64("retiredInsts", 0), stats.retiredInsts);
    const sim::JsonValue *hists = root.find("histograms");
    ASSERT_NE(hists, nullptr);
    EXPECT_EQ(hists->items.size(), 5u);
}

TEST(MetricsTest, ConfigValidatesObservabilityKnobs)
{
    sim::MachineConfig cfg;
    EXPECT_TRUE(cfg.validate().empty());

    cfg.sampleInterval = 1;     // default maxCycles = 2e9 samples
    EXPECT_FALSE(cfg.validate().empty());
    cfg.maxCycles = 1'000'000;
    EXPECT_TRUE(cfg.validate().empty());

    cfg.tracePath = "artifacts/";
    EXPECT_FALSE(cfg.validate().empty());
    cfg.tracePath = "artifacts/run.jsonl";
    EXPECT_TRUE(cfg.validate().empty());
}

} // namespace
