/**
 * @file
 * Unit tests for the canonical JSON writer and reader
 * (SnapshotWriter/SnapshotReader) and for the series codec built on
 * them: the job-result document's histogram and sample layout.
 *
 * The round-trip assertion: encode, decode into a freshly
 * constructed instance of the same geometry, and require the
 * re-encoded bytes to be identical — the encoding is canonical, so
 * byte equality is state equality.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/batch_runner.hh"
#include "sim/job_codec.hh"
#include "sim/machine_config.hh"
#include "sim/metrics.hh"
#include "sim/sim_error.hh"
#include "sim/snapshot.hh"

namespace
{

using namespace ssmt;

std::string
histogramText(const sim::OccupancyHistogram &h)
{
    sim::SnapshotWriter w;
    w.beginObject();
    h.save(w);
    w.endObject();
    return w.text();
}

// ---- Writer / Reader ----

TEST(SnapshotWriter, CanonicalNesting)
{
    sim::SnapshotWriter w;
    w.beginObject();
    w.u64("a", 1);
    w.beginObject("inner");
    w.boolean("flag", true);
    w.str("name", "x\"y");
    w.endObject();
    w.beginArray("items");
    w.u64(7);
    w.u64(8);
    w.endArray();
    w.endObject();
    EXPECT_EQ(w.text(),
              "{\"a\":1,\"inner\":{\"flag\":true,\"name\":"
              "\"x\\\"y\"},\"items\":[7,8]}");
}

TEST(SnapshotWriter, U64ArrayRoundTrips)
{
    const uint64_t words[2] = {0x0123456789abcdefull, ~0ull};
    sim::SnapshotWriter w;
    w.beginObject();
    w.u64Array("v", words, 2);
    w.endObject();

    sim::SnapshotReader r(w.text());
    EXPECT_EQ(r.u64Array("v"), (std::vector<uint64_t>{words[0], ~0ull}));
    uint64_t out[2] = {};
    r.u64ArrayInto("v", out, 2);
    EXPECT_EQ(out[0], words[0]);
    EXPECT_EQ(out[1], words[1]);
    uint64_t too_few[1] = {};
    EXPECT_THROW(r.u64ArrayInto("v", too_few, 1), sim::SimError);
}

TEST(SnapshotReader, MalformedDocumentThrowsParseError)
{
    try {
        sim::SnapshotReader r("{\"a\": ");
        FAIL() << "expected SimError";
    } catch (const sim::SimError &err) {
        EXPECT_EQ(err.code(), sim::ErrorCode::ParseError);
    }
}

TEST(SnapshotReader, MissingKeyAndSizePinThrow)
{
    sim::SnapshotReader r("{\"a\": 1}");
    EXPECT_TRUE(r.has("a"));
    EXPECT_FALSE(r.has("b"));
    EXPECT_THROW(r.u64("b"), sim::SimError);
    EXPECT_THROW(r.requireSize("pin", 3, 4), sim::SimError);
}

// ---- Series codec ----

TEST(SnapshotRoundTrip, OccupancyHistogram)
{
    sim::OccupancyHistogram a("fill", 128, 8);
    for (uint64_t v = 0; v <= 128; v += 3)
        a.add(v);
    sim::OccupancyHistogram b("fill", 128, 8);
    const std::string text = histogramText(a);
    sim::SnapshotReader r(text);
    b.restore(r);
    EXPECT_EQ(histogramText(b), text);
    EXPECT_EQ(b.samples(), a.samples());
    EXPECT_EQ(b.buckets(), a.buckets());
    EXPECT_EQ(b.minValue(), a.minValue());
    EXPECT_EQ(b.maxValue(), a.maxValue());
    EXPECT_DOUBLE_EQ(b.mean(), a.mean());
}

TEST(SnapshotRoundTrip, IntervalSamplerSeriesByteIdentical)
{
    sim::MachineConfig cfg;
    sim::IntervalSampler a(100, cfg);
    sim::Stats stats;
    sim::OccupancyGauges gauges;
    for (uint64_t c = 100; c <= 500; c += 100) {
        stats.cycles = c;
        stats.retiredInsts = c * 2;
        gauges.prbEntries = c % 13;
        gauges.windowFill = c % 7;
        a.sample(c, stats, gauges);
    }
    // The series travels in a job-result document; decode restores
    // it into a sampler built from the same config.
    cfg.sampleInterval = 100;
    sim::BatchResult result;
    result.artifacts.series = a.series();
    const std::string doc = sim::encodeJobResult(result, "", true);
    sim::BatchResult decoded;
    std::string checkpoint;
    bool final_attempt = false;
    sim::decodeJobResult(doc, cfg, &decoded, &checkpoint,
                         &final_attempt);
    EXPECT_EQ(sim::seriesDocumentJson(decoded.artifacts.series, "", ""),
              sim::seriesDocumentJson(a.series(), "", ""));
    EXPECT_EQ(sim::encodeJobResult(decoded, "", true), doc);
}

} // namespace
