/**
 * @file
 * Pins the spaced-layout documents sim::SnapshotWriter writes: the
 * ssmt-series-v1 artifact and the Chrome trace of hand-built inputs,
 * byte for byte, and the escaping of every string they carry.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cpu/trace.hh"
#include "sim/json_text.hh"
#include "sim/metrics.hh"

namespace
{

using namespace ssmt;
using cpu::TraceEvent;

/** Two samples and two histograms; each sample's Stats sets only
 *  cycles, retiredInsts and build.built. */
sim::MetricsSeries
twoSampleSeries()
{
    sim::MetricsSeries series;
    series.interval = 1000;
    sim::Sample first;
    first.cycle = 1000;
    first.stats.cycles = 1000;
    first.stats.retiredInsts = 1500;
    first.gauges = {3, 1, 40, 2, 96};
    sim::Sample second = first;
    second.cycle = 1700;
    second.stats.cycles = 1700;
    second.stats.retiredInsts = 2600;
    second.stats.build.built = 4;
    second.gauges = {5, 2, 41, 3, 120};
    series.samples = {first, second};

    sim::OccupancyHistogram prb("prb", 8, 4);
    prb.add(3);
    prb.add(5);
    sim::OccupancyHistogram window("window", 128, 2);
    window.add(96);
    window.add(120);
    series.histograms = {prb, window};
    return series;
}

/** A sample's counters in sim::flattenStats order, all zero but
 *  three. */
std::string
counters(uint64_t cycles, uint64_t insts, uint64_t built)
{
    return "\"cycles\": " + std::to_string(cycles) +
           ", \"retiredInsts\": " + std::to_string(insts) +
           ", \"fetchBubbleCycles\": 0, \"condBranches\": 0, "
           "\"condHwMispredicts\": 0, \"indirectBranches\": 0, "
           "\"indirectHwMispredicts\": 0, \"usedMispredicts\": 0, "
           "\"promotionsRequested\": 0, \"promotionsCompleted\": 0, "
           "\"demotions\": 0, \"buildsFailed\": 0, \"rebuildRequests\": 0, "
           "\"oracleOverrides\": 0, \"throttleDemotions\": 0, "
           "\"hintPromotions\": 0, \"spawnAttempts\": 0, "
           "\"spawnAbortPrefix\": 0, \"spawnNoContext\": 0, \"spawns\": 0, "
           "\"abortsPostSpawn\": 0, \"microthreadsCompleted\": 0, "
           "\"microOpsExecuted\": 0, \"predEarly\": 0, \"predLate\": 0, "
           "\"predUseless\": 0, \"predNeverReached\": 0, "
           "\"microPredCorrect\": 0, \"microPredWrong\": 0, "
           "\"earlyRecoveries\": 0, \"bogusRecoveries\": 0, "
           "\"pathCacheUpdates\": 0, \"pathCacheAllocations\": 0, "
           "\"pathCacheAllocationsSkipped\": 0, \"pcacheWrites\": 0, "
           "\"pcacheLookupHits\": 0, \"l1dMisses\": 0, \"l1dAccesses\": 0, "
           "\"l2Misses\": 0, \"l2Accesses\": 0, \"build.requests\": 0, "
           "\"build.built\": " + std::to_string(built) +
           ", \"build.failScopeNotInPrb\": 0, "
           "\"build.failPathMismatch\": 0, \"build.stopsMemDep\": 0, "
           "\"build.stopsMcbFull\": 0, \"build.totalOps\": 0, "
           "\"build.totalChain\": 0, \"build.totalLiveIns\": 0, "
           "\"build.prunedRoutines\": 0, \"build.prunedSubtrees\": 0";
}

TEST(SeriesDocument, TwoSamplesArePinned)
{
    std::string want =
        "{\n"
        "  \"schema\": \"ssmt-series-v1\",\n"
        "  \"workload\": \"comp\",\n"
        "  \"config\": \"microthread\",\n"
        "  \"interval\": 1000,\n"
        "  \"samples\": [\n"
        "    {\"cycle\": 1000, \"counters\": {" +
        counters(1000, 1500, 0) +
        "}, \"gauges\": {\"prbEntries\": 3, \"liveMicrocontexts\": 1, "
        "\"pcacheValidEntries\": 40, \"microRamRoutines\": 2, "
        "\"windowFill\": 96}},\n"
        "    {\"cycle\": 1700, \"counters\": {" +
        counters(1700, 2600, 4) +
        "}, \"gauges\": {\"prbEntries\": 5, \"liveMicrocontexts\": 2, "
        "\"pcacheValidEntries\": 41, \"microRamRoutines\": 3, "
        "\"windowFill\": 120}}\n"
        "  ],\n"
        "  \"histograms\": [\n"
        "    {\"name\": \"prb\", \"capacity\": 8, \"bucketWidth\": 3, "
        "\"samples\": 2, \"min\": 3, \"max\": 5, \"sum\": 8, "
        "\"buckets\": [0, 2, 0, 0]},\n"
        "    {\"name\": \"window\", \"capacity\": 128, "
        "\"bucketWidth\": 65, \"samples\": 2, \"min\": 96, \"max\": 120, "
        "\"sum\": 216, \"buckets\": [0, 2]}\n"
        "  ]\n"
        "}\n";
    EXPECT_EQ(sim::seriesDocumentJson(twoSampleSeries(), "comp",
                                      "microthread"),
              want);
}

TEST(SeriesDocument, EscapesWorkloadAndConfig)
{
    const std::string workload = "a\"b\\c";
    const std::string config = "tab\there";
    sim::JsonValue root;
    std::string err;
    ASSERT_TRUE(sim::parseJson(
        sim::seriesDocumentJson(twoSampleSeries(), workload, config),
        root, &err))
        << err;
    EXPECT_EQ(root.str("workload"), workload);
    EXPECT_EQ(root.str("config"), config);
}

TEST(ChromeTrace, SlicesArePinned)
{
    // Context 0: a complete slice, a truncated one (its end event
    // was lost) and one in flight. Context 1: an abort. Context 2: in
    // flight, listed after context 0's. Context 3: an end event
    // whose spawn was lost, so no slice.
    const std::vector<cpu::TraceRecord> records = {
        {1, TraceEvent::Fetch, 10, 1, 0},
        {2, TraceEvent::Spawn, 20, 1, 0xa, 0},
        {3, TraceEvent::Spawn, 21, 2, 0xb, 2},
        {5, TraceEvent::ThreadComplete, 0, 0, 0xa, 0},
        {6, TraceEvent::Spawn, 22, 3, 0xc, 1},
        {6, TraceEvent::ThreadAbort, 0, 0, 0xc, 1},
        {7, TraceEvent::Mispredict, 30, 4, 0},
        {8, TraceEvent::Spawn, 23, 5, 0xd, 0},
        {9, TraceEvent::Spawn, 24, 6, 0xe, 0},
        {10, TraceEvent::ThreadComplete, 0, 0, 0xf, 3},
        {11, TraceEvent::Promote, 0, 0, 0x10},
        {12, TraceEvent::Retire, 10, 1, 0},
    };
    const std::string want =
        "{\n"
        "  \"displayTimeUnit\": \"ms\",\n"
        "  \"otherData\": {\"schema\": \"ssmt-chrome-trace-v1\", "
        "\"timeUnit\": \"1 ts = 1 cycle\"},\n"
        "  \"traceEvents\": [\n"
        "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
        "\"tid\": 0, \"args\": {\"name\": \"primary\"}},\n"
        "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
        "\"tid\": 1, \"args\": {\"name\": \"mechanism\"}},\n"
        "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
        "\"args\": {\"name\": \"ssmt\"}},\n"
        "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
        "\"tid\": 2, \"args\": {\"name\": \"uctx0\"}},\n"
        "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
        "\"tid\": 4, \"args\": {\"name\": \"uctx2\"}},\n"
        "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
        "\"tid\": 3, \"args\": {\"name\": \"uctx1\"}},\n"
        "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
        "\"tid\": 5, \"args\": {\"name\": \"uctx3\"}},\n"
        "    {\"name\": \"fetch\", \"cat\": \"pipeline\", \"ph\": \"i\", "
        "\"s\": \"t\", \"ts\": 1, \"pid\": 0, \"tid\": 0, "
        "\"args\": {\"pc\": 10, \"seq\": 1, \"path\": 0}},\n"
        "    {\"name\": \"spawn\", \"cat\": \"mechanism\", \"ph\": \"i\", "
        "\"s\": \"t\", \"ts\": 2, \"pid\": 0, \"tid\": 1, "
        "\"args\": {\"pc\": 20, \"seq\": 1, \"path\": 10}},\n"
        "    {\"name\": \"spawn\", \"cat\": \"mechanism\", \"ph\": \"i\", "
        "\"s\": \"t\", \"ts\": 3, \"pid\": 0, \"tid\": 1, "
        "\"args\": {\"pc\": 21, \"seq\": 2, \"path\": 11}},\n"
        "    {\"name\": \"thread-complete\", \"cat\": \"mechanism\", "
        "\"ph\": \"i\", \"s\": \"t\", \"ts\": 5, \"pid\": 0, \"tid\": 1, "
        "\"args\": {\"pc\": 0, \"seq\": 0, \"path\": 10}},\n"
        "    {\"name\": \"uthread 10\", \"cat\": \"uthread\", \"ph\": \"X\", "
        "\"ts\": 2, \"dur\": 3, \"pid\": 0, \"tid\": 2, "
        "\"args\": {\"path\": 10, \"spawnSeq\": 1, "
        "\"outcome\": \"complete\"}},\n"
        "    {\"name\": \"spawn\", \"cat\": \"mechanism\", \"ph\": \"i\", "
        "\"s\": \"t\", \"ts\": 6, \"pid\": 0, \"tid\": 1, "
        "\"args\": {\"pc\": 22, \"seq\": 3, \"path\": 12}},\n"
        "    {\"name\": \"thread-abort\", \"cat\": \"mechanism\", "
        "\"ph\": \"i\", \"s\": \"t\", \"ts\": 6, \"pid\": 0, \"tid\": 1, "
        "\"args\": {\"pc\": 0, \"seq\": 0, \"path\": 12}},\n"
        "    {\"name\": \"uthread 12\", \"cat\": \"uthread\", \"ph\": \"X\", "
        "\"ts\": 6, \"dur\": 1, \"pid\": 0, \"tid\": 3, "
        "\"args\": {\"path\": 12, \"spawnSeq\": 3, "
        "\"outcome\": \"abort\"}},\n"
        "    {\"name\": \"mispredict\", \"cat\": \"pipeline\", "
        "\"ph\": \"i\", \"s\": \"t\", \"ts\": 7, \"pid\": 0, \"tid\": 0, "
        "\"args\": {\"pc\": 30, \"seq\": 4, \"path\": 0}},\n"
        "    {\"name\": \"spawn\", \"cat\": \"mechanism\", \"ph\": \"i\", "
        "\"s\": \"t\", \"ts\": 8, \"pid\": 0, \"tid\": 1, "
        "\"args\": {\"pc\": 23, \"seq\": 5, \"path\": 13}},\n"
        "    {\"name\": \"spawn\", \"cat\": \"mechanism\", \"ph\": \"i\", "
        "\"s\": \"t\", \"ts\": 9, \"pid\": 0, \"tid\": 1, "
        "\"args\": {\"pc\": 24, \"seq\": 6, \"path\": 14}},\n"
        "    {\"name\": \"uthread 13\", \"cat\": \"uthread\", \"ph\": \"X\", "
        "\"ts\": 8, \"dur\": 1, \"pid\": 0, \"tid\": 2, "
        "\"args\": {\"path\": 13, \"spawnSeq\": 5, "
        "\"outcome\": \"truncated\"}},\n"
        "    {\"name\": \"thread-complete\", \"cat\": \"mechanism\", "
        "\"ph\": \"i\", \"s\": \"t\", \"ts\": 10, \"pid\": 0, \"tid\": 1, "
        "\"args\": {\"pc\": 0, \"seq\": 0, \"path\": 15}},\n"
        "    {\"name\": \"promote\", \"cat\": \"mechanism\", \"ph\": \"i\", "
        "\"s\": \"t\", \"ts\": 11, \"pid\": 0, \"tid\": 1, "
        "\"args\": {\"pc\": 0, \"seq\": 0, \"path\": 16}},\n"
        "    {\"name\": \"retire\", \"cat\": \"pipeline\", \"ph\": \"i\", "
        "\"s\": \"t\", \"ts\": 12, \"pid\": 0, \"tid\": 0, "
        "\"args\": {\"pc\": 10, \"seq\": 1, \"path\": 0}},\n"
        "    {\"name\": \"uthread 14\", \"cat\": \"uthread\", \"ph\": \"X\", "
        "\"ts\": 9, \"dur\": 4, \"pid\": 0, \"tid\": 2, "
        "\"args\": {\"path\": 14, \"spawnSeq\": 6, "
        "\"outcome\": \"in-flight\"}},\n"
        "    {\"name\": \"uthread 11\", \"cat\": \"uthread\", \"ph\": \"X\", "
        "\"ts\": 3, \"dur\": 10, \"pid\": 0, \"tid\": 4, "
        "\"args\": {\"path\": 11, \"spawnSeq\": 2, "
        "\"outcome\": \"in-flight\"}}\n"
        "  ]\n"
        "}\n";
    EXPECT_EQ(cpu::chromeTraceJson(records), want);
}

} // namespace
