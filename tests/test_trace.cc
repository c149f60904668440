/**
 * @file
 * Tests for the pipeline event trace.
 */

#include <cstdio>

#include <gtest/gtest.h>

#include "cpu/ssmt_core.hh"
#include "cpu/trace.hh"
#include "sim/json_text.hh"
#include "sim/sim_runner.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;
using cpu::PipelineTrace;
using cpu::TraceEvent;
using cpu::TraceRecord;

TEST(TraceTest, DisabledByDefaultAndRecordsNothing)
{
    PipelineTrace trace;
    EXPECT_FALSE(trace.enabled());
    trace.record(1, TraceEvent::Fetch, 2, 3);
    EXPECT_EQ(trace.size(), 0u);
    EXPECT_TRUE(trace.records().empty());
}

TEST(TraceTest, RecordsInOrder)
{
    PipelineTrace trace(8);
    trace.record(10, TraceEvent::Fetch, 1, 100);
    trace.record(11, TraceEvent::Mispredict, 1, 100);
    trace.record(30, TraceEvent::Retire, 1, 100);
    auto records = trace.records();
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].event, TraceEvent::Fetch);
    EXPECT_EQ(records[1].event, TraceEvent::Mispredict);
    EXPECT_EQ(records[2].cycle, 30u);
}

TEST(TraceTest, RingKeepsNewest)
{
    PipelineTrace trace(4);
    for (uint64_t i = 0; i < 10; i++)
        trace.record(i, TraceEvent::Fetch, i, i);
    EXPECT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace.totalRecorded(), 10u);
    auto records = trace.records();
    EXPECT_EQ(records.front().cycle, 6u);
    EXPECT_EQ(records.back().cycle, 9u);
}

TEST(TraceTest, EveryEventHasAName)
{
    for (int e = 0; e <= static_cast<int>(TraceEvent::BogusRecovery);
         e++) {
        EXPECT_STRNE(traceEventName(static_cast<TraceEvent>(e)), "?");
    }
}

TEST(TraceTest, CoreEmitsMechanismEvents)
{
    workloads::SyntheticSpec spec;
    spec.takenPercent = {0, 100, 80, 80};
    spec.iters = 100;
    isa::Program prog = workloads::makeSynthetic(spec);
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cfg.traceCapacity = 1 << 16;
    cpu::SsmtCore core(prog, cfg);
    core.run();

    ASSERT_TRUE(core.trace().enabled());
    bool saw_fetch = false, saw_retire = false, saw_spawn = false,
         saw_promote = false;
    uint64_t prev_cycle = 0;
    for (const TraceRecord &record : core.trace().records()) {
        EXPECT_GE(record.cycle, prev_cycle);    // time-ordered
        prev_cycle = record.cycle;
        switch (record.event) {
          case TraceEvent::Fetch: saw_fetch = true; break;
          case TraceEvent::Retire: saw_retire = true; break;
          case TraceEvent::Spawn: saw_spawn = true; break;
          case TraceEvent::Promote: saw_promote = true; break;
          default: break;
        }
    }
    EXPECT_TRUE(saw_fetch);
    EXPECT_TRUE(saw_retire);
    EXPECT_TRUE(saw_spawn || saw_promote);
}

TEST(TraceTest, TracingDoesNotPerturbTiming)
{
    isa::Program prog =
        workloads::makeSynthetic(workloads::SyntheticSpec{});
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    sim::Stats off = sim::runProgramChecked(prog, cfg);
    cfg.traceCapacity = 4096;
    sim::Stats on = sim::runProgramChecked(prog, cfg);
    EXPECT_EQ(off.cycles, on.cycles);
    EXPECT_EQ(off.spawns, on.spawns);
}

isa::Program
tracedProgram()
{
    workloads::SyntheticSpec spec;
    spec.takenPercent = {0, 100, 80, 80};
    spec.iters = 200;
    return workloads::makeSynthetic(spec);
}

TEST(TraceTest, MicrothreadLifecycleEventsCarryContext)
{
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cfg.traceCapacity = 1 << 16;
    cpu::SsmtCore core(tracedProgram(), cfg);
    core.run();

    bool saw_spawn_ctx = false, saw_end_ctx = false;
    for (const TraceRecord &rec : core.trace().records()) {
        switch (rec.event) {
          case TraceEvent::Spawn:
            EXPECT_NE(rec.ctx, cpu::kNoTraceCtx);
            EXPECT_LT(rec.ctx, cfg.numMicrocontexts);
            saw_spawn_ctx = true;
            break;
          case TraceEvent::ThreadAbort:
          case TraceEvent::ThreadComplete:
            EXPECT_NE(rec.ctx, cpu::kNoTraceCtx);
            saw_end_ctx = true;
            break;
          case TraceEvent::Fetch:
          case TraceEvent::Retire:
            EXPECT_EQ(rec.ctx, cpu::kNoTraceCtx);
            break;
          default:
            break;
        }
    }
    EXPECT_TRUE(saw_spawn_ctx);
    EXPECT_TRUE(saw_end_ctx);
}

TEST(TraceTest, ChromeTraceJsonIsValidAndHasTracks)
{
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cfg.traceCapacity = 1 << 16;
    cpu::SsmtCore core(tracedProgram(), cfg);
    core.run();

    std::string doc = cpu::chromeTraceJson(core.trace().records());
    sim::JsonValue root;
    std::string err;
    ASSERT_TRUE(sim::parseJson(doc, root, &err)) << err;

    const sim::JsonValue *other = root.find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->str("schema"), "ssmt-chrome-trace-v1");

    const sim::JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_FALSE(events->items.empty());

    bool saw_primary_name = false, saw_ctx_name = false,
         saw_slice = false, saw_instant = false;
    for (const sim::JsonValue &event : events->items) {
        std::string ph = event.str("ph");
        if (ph == "M") {
            const sim::JsonValue *args = event.find("args");
            ASSERT_NE(args, nullptr);
            if (args->str("name") == "primary")
                saw_primary_name = true;
            if (args->str("name").rfind("uctx", 0) == 0)
                saw_ctx_name = true;
        } else if (ph == "X") {
            saw_slice = true;
            EXPECT_GE(event.u64("dur", 0), 1u);
            EXPECT_GE(event.u64("tid", 0), 2u);  // microcontext track
        } else if (ph == "i") {
            saw_instant = true;
        }
    }
    EXPECT_TRUE(saw_primary_name);
    EXPECT_TRUE(saw_ctx_name);
    EXPECT_TRUE(saw_slice);
    EXPECT_TRUE(saw_instant);
}

TEST(TraceTest, JsonlStreamCapturesEveryEvent)
{
    std::string path = testing::TempDir() + "/ssmt_trace_test.jsonl";
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cfg.traceCapacity = 16;         // tiny ring; stream is unbounded
    cfg.tracePath = path;
    uint64_t total = 0;
    {
        // Scoped so the core's destructor closes (and flushes) the
        // stream before the file is read back.
        cpu::SsmtCore core(tracedProgram(), cfg);
        core.run();
        total = core.trace().totalRecorded();
    }
    ASSERT_GT(total, 16u);

    std::FILE *file = std::fopen(path.c_str(), "r");
    ASSERT_NE(file, nullptr);
    char line[512];
    uint64_t lines = 0;
    while (std::fgets(line, sizeof(line), file)) {
        lines++;
        if (lines <= 5 || lines == total) {
            sim::JsonValue root;
            std::string err;
            EXPECT_TRUE(sim::parseJson(line, root, &err))
                << "line " << lines << ": " << err;
            EXPECT_FALSE(root.str("event").empty());
        }
    }
    std::fclose(file);
    EXPECT_EQ(lines, total);
    std::remove(path.c_str());
}

TEST(TraceTest, JsonLineIncludesContextOnlyWhenSet)
{
    TraceRecord plain{5, TraceEvent::Fetch, 1, 2, 3};
    EXPECT_EQ(plain.toJsonLine().find("\"ctx\""), std::string::npos);
    TraceRecord tagged{5, TraceEvent::Spawn, 1, 2, 3, 4};
    EXPECT_NE(tagged.toJsonLine().find("\"ctx\": 4"),
              std::string::npos);
}

} // namespace
