/**
 * @file
 * Tests for the ssmt-bench-v1 emitter: the document it produces must
 * parse back (via sim/json_text) with every field intact, string
 * escaping must round-trip, writeFile must honor the
 * SSMT_BENCH_JSON_DIR redirect/disable contract, and every committed
 * results/ file must be an ssmt-bench-v1 document.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/bench_json.hh"
#include "sim/fsio.hh"
#include "sim/json_text.hh"
#include "sim/snapshot.hh"

namespace
{

using namespace ssmt;

sim::Stats
sampleStats()
{
    sim::Stats s;
    s.cycles = 1000;
    s.retiredInsts = 2500;
    s.condBranches = 400;
    s.condHwMispredicts = 40;
    s.indirectBranches = 25;
    s.indirectHwMispredicts = 5;
    s.usedMispredicts = 30;
    s.promotionsRequested = 8;
    s.promotionsCompleted = 7;
    s.demotions = 2;
    s.spawnAttempts = 90;
    s.spawns = 60;
    s.abortsPostSpawn = 10;
    s.microthreadsCompleted = 45;
    s.predEarly = 20;
    s.predLate = 15;
    s.predUseless = 5;
    s.predNeverReached = 3;
    s.microPredCorrect = 30;
    s.microPredWrong = 5;
    s.pcacheWrites = 43;
    s.pcacheLookupHits = 20;
    return s;
}

TEST(BenchJsonTest, EmitParseRoundTrip)
{
    sim::BenchJson doc("roundtrip", 4, true);
    sim::Stats s = sampleStats();
    doc.addRun("mcf_2k", "microthread", 1.25, s);
    doc.addTiming("li", "profiler", 0.5);
    doc.setSuiteWallSeconds(2.75);

    sim::JsonValue parsed;
    std::string err;
    ASSERT_TRUE(sim::parseJson(doc.str(), parsed, &err)) << err;
    ASSERT_EQ(parsed.kind, sim::JsonValue::Kind::Object);

    EXPECT_EQ(parsed.str("schema"), "ssmt-bench-v1");
    EXPECT_EQ(parsed.str("bench"), "roundtrip");
    const sim::JsonValue *quick = parsed.find("quick");
    ASSERT_NE(quick, nullptr);
    EXPECT_EQ(quick->kind, sim::JsonValue::Kind::Bool);
    EXPECT_TRUE(quick->boolean);
    EXPECT_EQ(parsed.u64("jobs", 0), 4u);
    const sim::JsonValue *wall = parsed.find("suiteWallSeconds");
    ASSERT_NE(wall, nullptr);
    EXPECT_NEAR(wall->number, 2.75, 1e-9);
    const sim::JsonValue *job_total = parsed.find("jobSecondsTotal");
    ASSERT_NE(job_total, nullptr);
    EXPECT_NEAR(job_total->number, 1.75, 1e-9);

    const sim::JsonValue *runs = parsed.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->kind, sim::JsonValue::Kind::Array);
    ASSERT_EQ(runs->items.size(), 2u);

    const sim::JsonValue &cell = runs->items[0];
    EXPECT_EQ(cell.str("workload"), "mcf_2k");
    EXPECT_EQ(cell.str("config"), "microthread");
    EXPECT_EQ(cell.u64("cycles", 0), s.cycles);
    EXPECT_EQ(cell.u64("retiredInsts", 0), s.retiredInsts);
    EXPECT_EQ(cell.u64("condBranches", 0), s.condBranches);
    EXPECT_EQ(cell.u64("condHwMispredicts", 0), s.condHwMispredicts);
    EXPECT_EQ(cell.u64("usedMispredicts", 0), s.usedMispredicts);
    EXPECT_EQ(cell.u64("spawnAttempts", 0), s.spawnAttempts);
    EXPECT_EQ(cell.u64("spawns", 0), s.spawns);
    EXPECT_EQ(cell.u64("predEarly", 0), s.predEarly);
    EXPECT_EQ(cell.u64("predLate", 0), s.predLate);
    EXPECT_EQ(cell.u64("pcacheLookupHits", 0), s.pcacheLookupHits);
    const sim::JsonValue *ipc = cell.find("ipc");
    ASSERT_NE(ipc, nullptr);
    EXPECT_NEAR(ipc->number, s.ipc(), 1e-6);

    // The timing-only cell has no simulator counters.
    const sim::JsonValue &timing = runs->items[1];
    EXPECT_EQ(timing.str("workload"), "li");
    EXPECT_EQ(timing.find("cycles"), nullptr);
}

TEST(BenchJsonTest, EmptyDocumentParses)
{
    sim::BenchJson doc("empty", 1, false);
    sim::JsonValue parsed;
    std::string err;
    ASSERT_TRUE(sim::parseJson(doc.str(), parsed, &err)) << err;
    const sim::JsonValue *runs = parsed.find("runs");
    ASSERT_NE(runs, nullptr);
    EXPECT_TRUE(runs->items.empty());
    const sim::JsonValue *quick = parsed.find("quick");
    ASSERT_NE(quick, nullptr);
    EXPECT_FALSE(quick->boolean);
}

TEST(BenchJsonTest, EscapedStringsRoundTrip)
{
    std::string nasty = "a\"b\\c\nd\te\rf";
    nasty += '\x01';                    // control char -> \\u escape
    sim::BenchJson doc(nasty, 1, false);
    doc.addTiming(nasty, "cfg", 0.0);

    sim::JsonValue parsed;
    std::string err;
    ASSERT_TRUE(sim::parseJson(doc.str(), parsed, &err)) << err;
    EXPECT_EQ(parsed.str("bench"), nasty);
    const sim::JsonValue *runs = parsed.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->items.size(), 1u);
    EXPECT_EQ(runs->items[0].str("workload"), nasty);

    // SnapshotWriter appends through the same escaper.
    sim::SnapshotWriter w;
    w.beginObject();
    w.str("label", nasty);
    w.endObject();
    EXPECT_NE(w.text().find(sim::BenchJson::escape(nasty)),
              std::string::npos);
    EXPECT_EQ(sim::SnapshotReader(w.text()).str("label"), nasty);
}

TEST(BenchJsonTest, EveryCommittedResultIsBenchV1)
{
    // One schema for every published measurement: each file under
    // results/ parses as ssmt-bench-v1 with named runs.
    const std::string dir = SSMT_RESULTS_DIR;
    std::vector<std::string> files = sim::listDir(dir);
    ASSERT_FALSE(files.empty()) << "no files in " << dir;
    for (const std::string &name : files) {
        SCOPED_TRACE(name);
        sim::JsonValue root;
        std::string err;
        if (!sim::parseJson(sim::readFileOrEmpty(dir + "/" + name), root,
                            &err)) {
            ADD_FAILURE() << "does not parse: " << err;
            continue;
        }
        EXPECT_EQ(root.str("schema"), "ssmt-bench-v1");
        EXPECT_FALSE(root.str("bench").empty());
        const sim::JsonValue *runs = root.find("runs");
        if (!runs || runs->kind != sim::JsonValue::Kind::Array) {
            ADD_FAILURE() << "no runs array";
            continue;
        }
        for (const sim::JsonValue &run : runs->items) {
            EXPECT_FALSE(run.str("workload").empty());
            EXPECT_FALSE(run.str("config").empty());
        }
    }
}

/** RAII guard: set/unset SSMT_BENCH_JSON_DIR, restore on exit. */
class EnvDirGuard
{
  public:
    explicit EnvDirGuard(const char *value)
    {
        const char *old = std::getenv("SSMT_BENCH_JSON_DIR");
        had_ = old != nullptr;
        if (had_)
            saved_ = old;
        if (value)
            setenv("SSMT_BENCH_JSON_DIR", value, 1);
        else
            unsetenv("SSMT_BENCH_JSON_DIR");
    }

    ~EnvDirGuard()
    {
        if (had_)
            setenv("SSMT_BENCH_JSON_DIR", saved_.c_str(), 1);
        else
            unsetenv("SSMT_BENCH_JSON_DIR");
    }

  private:
    bool had_;
    std::string saved_;
};

TEST(BenchJsonTest, WriteFileHonorsEnvRedirect)
{
    std::string dir = ::testing::TempDir() + "bench_json_env";
    ASSERT_EQ(0, system(("mkdir -p " + dir).c_str()));
    EnvDirGuard guard(dir.c_str());

    sim::BenchJson doc("envtest", 1, false);
    doc.addRun("go", "baseline", 0.1, sampleStats());
    std::string path = doc.writeFile();
    EXPECT_EQ(path, dir + "/BENCH_envtest.json");

    std::FILE *file = std::fopen(path.c_str(), "r");
    ASSERT_NE(file, nullptr);
    std::string text;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0)
        text.append(buf, got);
    std::fclose(file);
    EXPECT_EQ(text, doc.str());
    std::remove(path.c_str());
}

TEST(BenchJsonTest, WriteFileExplicitDirBeatsEnv)
{
    std::string env_dir = ::testing::TempDir() + "bench_json_envb";
    std::string arg_dir = ::testing::TempDir() + "bench_json_arg";
    ASSERT_EQ(0, system(("mkdir -p " + env_dir).c_str()));
    ASSERT_EQ(0, system(("mkdir -p " + arg_dir).c_str()));
    EnvDirGuard guard(env_dir.c_str());

    sim::BenchJson doc("argtest", 1, false);
    std::string path = doc.writeFile(arg_dir);
    EXPECT_EQ(path, arg_dir + "/BENCH_argtest.json");
    std::remove(path.c_str());
}

TEST(BenchJsonTest, WriteFileDisabledByOffAndDevNull)
{
    for (const char *setting : {"off", "/dev/null"}) {
        SCOPED_TRACE(setting);
        EnvDirGuard guard(setting);
        sim::BenchJson doc("disabled", 1, false);
        EXPECT_EQ(doc.writeFile(), "");
        // The explicit-argument spellings are disabled too.
        EXPECT_EQ(doc.writeFile(setting), "");
    }
}

TEST(BenchJsonTest, WriteFileUnwritableDirFailsCleanly)
{
    EnvDirGuard guard("/nonexistent-ssmt-bench-dir");
    sim::BenchJson doc("unwritable", 1, false);
    EXPECT_EQ(doc.writeFile(), "");
}

} // namespace
