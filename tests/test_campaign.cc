/**
 * @file
 * Campaign durability tests: the journal + content-addressed store
 * must make a killed campaign resumable with finished cells served as
 * cache hits and the final manifest byte-identical to an
 * uninterrupted run — failures included. Also covers the canonical
 * spec serialization, cell enumeration, journal tail tolerance, spec
 * identity pinning, store garbage collection, and the store-key
 * formula existing stores depend on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "sim/campaign.hh"
#include "sim/fsio.hh"
#include "sim/golden.hh"
#include "sim/sim_error.hh"
#include "sim/sim_runner.hh"
#include "sim/snapshot.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

/** A new, empty campaign directory, removed when the test binary
 *  exits. Each call gets its own, so concurrent runs of this binary
 *  (ctest runs it whole next to its discovered cases) never share
 *  one. */
std::string
freshDir(const std::string &name)
{
    struct Dirs
    {
        std::vector<std::string> paths;
        ~Dirs()
        {
            for (const std::string &path : paths)
                std::filesystem::remove_all(path);
        }
    };
    static Dirs dirs;
    std::string dir = sim::makeTempDir("ssmt-campaign-test-" + name);
    EXPECT_FALSE(dir.empty());
    dirs.paths.push_back(dir);
    return dir;
}

/** A two-workload, two-mode grid on the lightest real workload mix;
 *  sampling on so series travel through the store too. */
sim::CampaignSpec
smallSpec()
{
    sim::CampaignSpec spec;
    spec.name = "campaign-test";
    spec.workloads = {"comp"};
    spec.modes = {sim::Mode::Baseline, sim::Mode::Microthread};
    spec.seeds = {0, 7};
    spec.sampleInterval = 2000;
    return spec;
}

TEST(CampaignSpec, CanonicalJsonRoundTrips)
{
    sim::CampaignSpec spec = smallSpec();
    spec.faults.site = sim::FaultSite::PredCacheFlip;
    spec.faults.count = 3;
    spec.faults.seed = 99;
    spec.maxRetries = 2;
    spec.cycleBudget = 123456;
    spec.resumeOnWatchdog = true;
    spec.isolate = true;
    spec.wallDeadlineMs = 1500;
    spec.memLimitMb = 512;
    spec.cpuLimitSeconds = 60;
    spec.backoffMs = 10;
    spec.crashes.emplace_back("comp/baseline/s0",
                              sim::CrashKind::Abort);

    std::string json = sim::specJson(spec);
    sim::CampaignSpec parsed = sim::parseSpec(json);
    EXPECT_EQ(sim::specJson(parsed), json);
    EXPECT_EQ(parsed.modes, spec.modes);
    EXPECT_EQ(parsed.seeds, spec.seeds);
    EXPECT_EQ(parsed.wallDeadlineMs, spec.wallDeadlineMs);
    ASSERT_EQ(parsed.crashes.size(), 1u);
    EXPECT_EQ(parsed.crashes[0].first, "comp/baseline/s0");
    EXPECT_EQ(parsed.crashes[0].second, sim::CrashKind::Abort);

    EXPECT_THROW(sim::parseSpec("{\"schema\": \"bogus\"}"),
                 sim::SimError);
    EXPECT_THROW(sim::parseSpec(json.substr(0, json.size() / 2)),
                 sim::SimError);
}

TEST(CampaignSpec, VariantLessSpecJsonIsPinned)
{
    // Journals, manifests and perfbench's specs have no variants;
    // their bytes (and so their identities) must not change.
    EXPECT_EQ(sim::specJson(smallSpec()),
              "{\"name\":\"campaign-test\",\"workloads\":[{\"name\":"
              "\"comp\"}],\"modes\":[{\"name\":\"baseline\"},{\"name\":"
              "\"microthread\"}],\"seeds\":[0,7],\"scale\":1,"
              "\"sampleInterval\":2000,\"maxInsts\":0,\"faults\":{"
              "\"site\":\"none\",\"seed\":1,\"count\":0,\"startCycle\":0,"
              "\"period\":200},\"maxRetries\":0,\"cycleBudget\":0,"
              "\"resumeOnWatchdog\":false,\"isolate\":false,"
              "\"wallDeadlineMs\":0,\"memLimitMb\":0,"
              "\"cpuLimitSeconds\":0,\"backoffMs\":0,\"crashes\":[]}");
}

/** Fig 7's four columns as config variants. */
std::vector<sim::CampaignVariant>
fig7Variants()
{
    return {{"baseline", {}},
            {"microthread", {"mode=microthread"}},
            {"microthread+pruning", {"mode=microthread", "pruningEnabled=1"}},
            {"overhead", {"mode=microthread-no-predictions"}}};
}

TEST(CampaignSpec, VariantsRoundTripAndNameCells)
{
    sim::CampaignSpec spec = smallSpec();
    spec.modes.clear();
    spec.variants = fig7Variants();
    spec.seeds = {0};

    std::string json = sim::specJson(spec);
    EXPECT_NE(json.find("\"variants\":[{\"name\":\"baseline\",\"set\":[]}"),
              std::string::npos)
        << json;
    sim::CampaignSpec parsed = sim::parseSpec(json);
    EXPECT_EQ(sim::specJson(parsed), json);
    ASSERT_EQ(parsed.variants.size(), 4u);
    EXPECT_EQ(parsed.variants[2].set, spec.variants[2].set);

    std::vector<sim::CampaignCell> cells = sim::campaignCells(spec);
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].name, "comp/baseline/s0");
    EXPECT_EQ(cells[2].name, "comp/microthread+pruning/s0");
    sim::MachineConfig pruned = sim::cellConfig(spec, cells[2]);
    EXPECT_EQ(pruned.mode, sim::Mode::Microthread);
    EXPECT_TRUE(pruned.builder.pruningEnabled);
    EXPECT_EQ(pruned.sampleInterval, spec.sampleInterval);
    EXPECT_EQ(sim::cellConfig(spec, cells[3]).mode,
              sim::Mode::MicrothreadNoPredictions);

    // The modes shorthand is one variant per mode setting only mode.
    std::vector<sim::CampaignCell> shorthand =
        sim::campaignCells(smallSpec());
    EXPECT_EQ(shorthand[2].variant.name, "microthread");
    EXPECT_EQ(shorthand[2].variant.set,
              std::vector<std::string>{"mode=microthread"});
}

TEST(CampaignSpec, RejectsBadVariants)
{
    std::string dir = freshDir("badvariant");
    auto rejected = [&](const sim::CampaignSpec &spec) {
        try {
            sim::runCampaign(spec, dir, {});
        } catch (const sim::SimError &err) {
            return err.code() == sim::ErrorCode::ConfigInvalid;
        }
        return false;
    };
    sim::CampaignSpec base = smallSpec();
    base.modes.clear();
    base.variants = {{"a", {"mode=microthread"}}};

    sim::CampaignSpec both = base;
    both.modes = {sim::Mode::Baseline};
    EXPECT_TRUE(rejected(both));

    sim::CampaignSpec unknown_key = base;
    unknown_key.variants[0].set.push_back("noSuchKnob=1");
    EXPECT_TRUE(rejected(unknown_key));

    sim::CampaignSpec bad_value = base;
    bad_value.variants[0].set.push_back("pathN=ten");
    EXPECT_TRUE(rejected(bad_value));

    sim::CampaignSpec duplicate = base;
    duplicate.variants.push_back({"a", {}});
    EXPECT_TRUE(rejected(duplicate));

    sim::CampaignSpec slash = base;
    slash.variants[0].name = "hybrid/baseline";
    EXPECT_TRUE(rejected(slash));

    sim::CampaignSpec empty_name = base;
    empty_name.variants[0].name = "";
    EXPECT_TRUE(rejected(empty_name));

    // Nothing was written for a refused spec.
    EXPECT_FALSE(sim::pathExists(dir + "/journal.jsonl"));
}

TEST(CampaignSpec, CellEnumerationIsWorkloadMajor)
{
    sim::CampaignSpec spec = smallSpec();
    spec.crashes.emplace_back("comp/microthread/s7",
                              sim::CrashKind::Hang);
    std::vector<sim::CampaignCell> cells = sim::campaignCells(spec);
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].name, "comp/baseline/s0");
    EXPECT_EQ(cells[1].name, "comp/baseline/s7");
    EXPECT_EQ(cells[2].name, "comp/microthread/s0");
    EXPECT_EQ(cells[3].name, "comp/microthread/s7");
    EXPECT_EQ(cells[3].crash, sim::CrashKind::Hang);
    EXPECT_EQ(cells[0].crash, sim::CrashKind::None);
}

TEST(Campaign, InterruptedRunResumesToByteIdenticalManifest)
{
    sim::CampaignSpec spec = smallSpec();

    // Reference: one uninterrupted run.
    std::string ref_dir = freshDir("ref");
    sim::CampaignOptions ref_opts;
    ref_opts.jobs = 1;
    sim::CampaignOutcome ref =
        sim::runCampaign(spec, ref_dir, ref_opts);
    ASSERT_TRUE(ref.completed);
    EXPECT_EQ(ref.executed, 4u);
    EXPECT_EQ(ref.failed, 0u);
    std::string ref_manifest =
        sim::readFileOrEmpty(ref.manifestPath);
    ASSERT_FALSE(ref_manifest.empty());

    // Interrupted: cancel after the first journaled cell — exactly
    // the durable state a mid-run `kill -9` leaves behind (the
    // journal is fsynced per line).
    std::string dir = freshDir("resume");
    std::atomic<bool> cancel{false};
    sim::CampaignOptions opts;
    opts.jobs = 1;
    opts.cancel = &cancel;
    opts.log = [&](const std::string &) { cancel.store(true); };
    sim::CampaignOutcome interrupted =
        sim::runCampaign(spec, dir, opts);
    EXPECT_FALSE(interrupted.completed);
    EXPECT_EQ(interrupted.executed, 1u);
    EXPECT_FALSE(sim::pathExists(dir + "/manifest.json"));

    // Resume: the same call again. Finished cells come back as cache
    // hits; the manifest must be byte-identical to the reference.
    sim::CampaignOptions resume_opts;
    resume_opts.jobs = 1;
    sim::CampaignOutcome resumed =
        sim::runCampaign(spec, dir, resume_opts);
    ASSERT_TRUE(resumed.completed);
    EXPECT_EQ(resumed.cacheHits, 1u);
    EXPECT_EQ(resumed.executed, 3u);
    EXPECT_EQ(sim::readFileOrEmpty(resumed.manifestPath),
              ref_manifest);

    // A third run is all cache hits and still byte-identical.
    sim::CampaignOutcome replay =
        sim::runCampaign(spec, dir, resume_opts);
    ASSERT_TRUE(replay.completed);
    EXPECT_EQ(replay.cacheHits, 4u);
    EXPECT_EQ(replay.executed, 0u);
    EXPECT_EQ(sim::readFileOrEmpty(replay.manifestPath),
              ref_manifest);
}

TEST(Campaign, CrashedCellsPersistAndReplayFromTheStore)
{
    sim::CampaignSpec spec = smallSpec();
    spec.seeds = {0};
    spec.isolate = true;
    spec.wallDeadlineMs = 60000;
    spec.crashes.emplace_back("comp/baseline/s0",
                              sim::CrashKind::Abort);

    std::string dir = freshDir("crash");
    sim::CampaignOptions opts;
    opts.jobs = 1;
    sim::CampaignOutcome first = sim::runCampaign(spec, dir, opts);
    ASSERT_TRUE(first.completed);
    EXPECT_EQ(first.failed, 1u);
    EXPECT_EQ(first.results[0].errorCode,
              sim::ErrorCode::JobCrashed);
    EXPECT_TRUE(first.results[1].ok());
    EXPECT_NE(first.failureSummary.find("comp/baseline/s0"),
              std::string::npos);
    std::string manifest = sim::readFileOrEmpty(first.manifestPath);
    EXPECT_NE(manifest.find("job-crashed"), std::string::npos);

    // Errored cells are stored too: the rerun replays the failure
    // from the store and reproduces the manifest byte-for-byte.
    sim::CampaignOutcome rerun = sim::runCampaign(spec, dir, opts);
    ASSERT_TRUE(rerun.completed);
    EXPECT_EQ(rerun.cacheHits, 2u);
    EXPECT_EQ(rerun.executed, 0u);
    EXPECT_EQ(rerun.failed, 1u);
    EXPECT_EQ(sim::readFileOrEmpty(rerun.manifestPath), manifest);
}

TEST(Campaign, JournalToleratesTruncatedFinalLine)
{
    sim::CampaignSpec spec = smallSpec();
    spec.seeds = {0};

    std::string dir = freshDir("tail");
    sim::CampaignOptions opts;
    opts.jobs = 1;
    sim::CampaignOutcome done = sim::runCampaign(spec, dir, opts);
    ASSERT_TRUE(done.completed);

    // Simulate a kill mid-append: a partial, unterminated JSON line.
    std::FILE *f = std::fopen((dir + "/journal.jsonl").c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"cell\": \"comp/micro", f);
    std::fclose(f);

    sim::JournalContents journal =
        sim::CampaignJournal::read(dir + "/journal.jsonl");
    EXPECT_TRUE(journal.headerOk);
    EXPECT_EQ(journal.cells.size(), 2u);
    EXPECT_EQ(journal.corruptLines, 0u);

    // The campaign still resumes over it: same spec, all cache hits.
    sim::CampaignOutcome resumed = sim::runCampaign(spec, dir, opts);
    ASSERT_TRUE(resumed.completed);
    EXPECT_EQ(resumed.cacheHits, 2u);
    EXPECT_EQ(resumed.executed, 0u);
}

TEST(Campaign, SpecMismatchRefusedUnlessForced)
{
    sim::CampaignSpec spec = smallSpec();
    spec.seeds = {0};
    spec.modes = {sim::Mode::Baseline};

    std::string dir = freshDir("mismatch");
    sim::CampaignOptions opts;
    opts.jobs = 1;
    ASSERT_TRUE(sim::runCampaign(spec, dir, opts).completed);

    sim::CampaignSpec changed = spec;
    changed.scale = 2;
    try {
        sim::runCampaign(changed, dir, opts);
        ADD_FAILURE() << "changed spec accepted over a pinned journal";
    } catch (const sim::SimError &err) {
        EXPECT_EQ(err.code(), sim::ErrorCode::ConfigInvalid);
    }

    // force restarts the journal; the changed spec's cells all run
    // (the old store entries are keyed differently and ignored).
    sim::CampaignOptions forced = opts;
    forced.force = true;
    sim::CampaignOutcome restarted =
        sim::runCampaign(changed, dir, forced);
    ASSERT_TRUE(restarted.completed);
    EXPECT_EQ(restarted.cacheHits, 0u);
    EXPECT_EQ(restarted.executed, 1u);
}

TEST(Campaign, GcRemovesOnlyUnreferencedEntries)
{
    sim::CampaignSpec spec = smallSpec();
    spec.seeds = {0};

    std::string dir = freshDir("gc");
    sim::CampaignOptions opts;
    opts.jobs = 1;
    ASSERT_TRUE(sim::runCampaign(spec, dir, opts).completed);
    EXPECT_EQ(sim::ResultStore(dir + "/store").list().size(), 2u);

    // Narrow the grid: the microthread cell's entry becomes garbage.
    sim::CampaignSpec narrowed = spec;
    narrowed.modes = {sim::Mode::Baseline};
    std::vector<std::string> removed =
        sim::campaignGc(narrowed, dir);
    EXPECT_EQ(removed.size(), 1u);
    EXPECT_EQ(sim::ResultStore(dir + "/store").list().size(), 1u);

    // The surviving entry still serves the narrowed campaign (force
    // rewrites the journal pin to the narrowed spec).
    sim::CampaignOptions forced = opts;
    forced.force = true;
    sim::CampaignOutcome outcome =
        sim::runCampaign(narrowed, dir, forced);
    ASSERT_TRUE(outcome.completed);
    EXPECT_EQ(outcome.cacheHits, 1u);
    EXPECT_EQ(outcome.executed, 0u);
}

TEST(Campaign, StoreKeysMatchPerCellFormula)
{
    // Stores written by any version must keep serving hits, so every
    // key is cellKey(programHash of the freshly built workload, the
    // cell's config, its seed). Two workloads at scale 2 catch a hash
    // served for the wrong program or the wrong scale.
    sim::CampaignSpec spec = smallSpec();
    spec.workloads = {"comp", "go"};
    spec.scale = 2;
    spec.sampleInterval = 0;
    spec.maxInsts = 20000;

    std::string dir = freshDir("keys");
    sim::CampaignOptions opts;
    opts.jobs = 2;
    std::set<std::string> hooked;
    opts.onCell = [&](const sim::CampaignCell &, const std::string &key,
                      const sim::BatchResult &, bool) {
        hooked.insert(key);
    };
    ASSERT_TRUE(sim::runCampaign(spec, dir, opts).completed);

    workloads::WorkloadParams params;
    params.scale = spec.scale;
    std::set<std::string> expected;
    for (const sim::CampaignCell &cell : sim::campaignCells(spec)) {
        expected.insert(sim::ResultStore::cellKey(
            sim::programHash(workloads::makeWorkload(cell.workload,
                                                     params)),
            sim::cellConfig(spec, cell), cell.seed));
    }
    ASSERT_EQ(expected.size(), 8u);
    std::vector<std::string> stored =
        sim::ResultStore(dir + "/store").list();
    EXPECT_EQ(std::set<std::string>(stored.begin(), stored.end()),
              expected);
    EXPECT_EQ(hooked, expected);
}

TEST(Campaign, OnCellHookSeesEveryCellWithCacheState)
{
    sim::CampaignSpec spec = smallSpec();
    std::string dir = freshDir("oncell");

    std::vector<std::pair<std::string, bool>> seen;
    sim::CampaignOptions opts;
    opts.jobs = 1;
    opts.onCell = [&](const sim::CampaignCell &cell,
                      const std::string &key,
                      const sim::BatchResult &result, bool cached) {
        EXPECT_FALSE(key.empty());
        EXPECT_TRUE(result.ok());
        seen.emplace_back(cell.name, cached);
    };
    ASSERT_TRUE(sim::runCampaign(spec, dir, opts).completed);
    ASSERT_EQ(seen.size(), 4u);
    for (const auto &entry : seen)
        EXPECT_FALSE(entry.second) << entry.first;

    // Replay: the hook fires again for every cell, now cached.
    seen.clear();
    ASSERT_TRUE(sim::runCampaign(spec, dir, opts).completed);
    ASSERT_EQ(seen.size(), 4u);
    for (const auto &entry : seen)
        EXPECT_TRUE(entry.second) << entry.first;
}

TEST(Campaign, ReplayJournalsEveryHitInCellOrder)
{
    // A replay journals its hits in one append; the file must still
    // read back as one line per cell, in cell order, after the cold
    // pass's lines.
    sim::CampaignSpec spec = smallSpec();
    std::string dir = freshDir("hits");
    sim::CampaignOptions opts;
    opts.jobs = 1;
    ASSERT_TRUE(sim::runCampaign(spec, dir, opts).completed);
    sim::CampaignOutcome replay = sim::runCampaign(spec, dir, opts);
    ASSERT_TRUE(replay.completed);
    ASSERT_EQ(replay.cacheHits, 4u);

    const std::string path = dir + "/journal.jsonl";
    sim::JournalContents journal = sim::CampaignJournal::read(path);
    EXPECT_TRUE(journal.headerOk);
    EXPECT_TRUE(journal.ended);
    EXPECT_EQ(journal.corruptLines, 0u);
    std::vector<sim::CampaignCell> cells = sim::campaignCells(spec);
    ASSERT_EQ(journal.cells.size(), 2 * cells.size());
    for (size_t i = 0; i < cells.size(); i++) {
        const sim::JournalCell &hit = journal.cells[cells.size() + i];
        EXPECT_EQ(hit.cell, cells[i].name);
        EXPECT_TRUE(hit.cached) << hit.cell;
        EXPECT_FALSE(journal.cells[i].cached) << journal.cells[i].cell;
        EXPECT_EQ(hit.key, journal.cells[i].key) << hit.cell;
    }

    // Appending no cells writes nothing.
    const std::string before = sim::readFileOrEmpty(path);
    sim::CampaignJournal appender(path);
    ASSERT_TRUE(appender.open(false));
    EXPECT_TRUE(appender.appendCells({}));
    appender.close();
    EXPECT_EQ(sim::readFileOrEmpty(path), before);
}

TEST(Campaign, JournalLagCountsStoredButUnjournaledCells)
{
    sim::CampaignSpec spec = smallSpec();
    std::string dir = freshDir("lag");
    sim::CampaignOptions opts;
    opts.jobs = 1;
    ASSERT_TRUE(sim::runCampaign(spec, dir, opts).completed);

    sim::JournalContents journal =
        sim::CampaignJournal::read(dir + "/journal.jsonl");
    ASSERT_TRUE(journal.exists);
    std::vector<std::string> keys =
        sim::ResultStore(dir + "/store").list();
    ASSERT_EQ(keys.size(), 4u);

    // A clean run: every stored result was acknowledged.
    EXPECT_EQ(sim::journalLag(journal, keys), 0u);

    // Simulate a death between store.save and journal.append by
    // adding store entries the journal never saw.
    keys.push_back("phantom-key-1");
    keys.push_back("phantom-key-2");
    EXPECT_EQ(sim::journalLag(journal, keys), 2u);

    // An empty journal lags by the whole store.
    sim::JournalContents fresh;
    EXPECT_EQ(sim::journalLag(fresh, keys), keys.size());
}

TEST(Campaign, Fig7VariantsMatchHandBuiltConfigs)
{
    // A bench cell is a campaign cell: the variants' settings on the
    // default config give the same Stats as the equivalent
    // hand-built MachineConfigs.
    sim::CampaignSpec spec;
    spec.name = "fig7-comp";
    spec.workloads = {"comp"};
    spec.variants = fig7Variants();

    std::string dir = freshDir("fig7");
    sim::CampaignOptions opts;
    opts.jobs = 2;
    sim::CampaignOutcome first = sim::runCampaign(spec, dir, opts);
    ASSERT_TRUE(first.completed);
    ASSERT_EQ(first.results.size(), 4u);

    std::vector<sim::MachineConfig> configs(4);
    configs[1].mode = sim::Mode::Microthread;
    configs[2].mode = sim::Mode::Microthread;
    configs[2].builder.pruningEnabled = true;
    configs[3].mode = sim::Mode::MicrothreadNoPredictions;
    isa::Program comp = workloads::makeWorkload("comp", {});
    for (size_t v = 0; v < configs.size(); v++) {
        SCOPED_TRACE(first.cells[v].name);
        EXPECT_EQ(sim::statsValues(first.results[v].stats),
                  sim::statsValues(sim::runProgram(comp, configs[v])));
    }

    std::string manifest = sim::readFileOrEmpty(first.manifestPath);
    EXPECT_NE(manifest.find("\"name\":\"comp/overhead/s0\","
                            "\"workload\":\"comp\","
                            "\"mode\":\"microthread-no-predictions\""),
              std::string::npos);
    sim::CampaignOutcome again = sim::runCampaign(spec, dir, opts);
    ASSERT_TRUE(again.completed);
    EXPECT_EQ(again.cacheHits, 4u);
    EXPECT_EQ(again.executed, 0u);
    EXPECT_EQ(sim::readFileOrEmpty(again.manifestPath), manifest);
}

TEST(Campaign, ScaleZeroIsRejected)
{
    // Scale 0 wraps the workloads' pass counters: the cell would run
    // to the maxInsts safety stop and report ok.
    sim::CampaignSpec spec = smallSpec();
    spec.modes = {sim::Mode::Baseline};
    spec.seeds = {0};
    spec.scale = 0;
    spec.maxInsts = 10000;
    try {
        sim::runCampaign(spec, freshDir("scale0"), {});
        ADD_FAILURE() << "scale 0 accepted";
    } catch (const sim::SimError &err) {
        EXPECT_EQ(err.code(), sim::ErrorCode::ConfigInvalid);
    }
}

TEST(Campaign, JournalCountsDeeplyNestedLineAsCorrupt)
{
    sim::CampaignSpec spec = smallSpec();
    spec.modes = {sim::Mode::Baseline};
    spec.seeds = {0};
    std::string dir = freshDir("deep");
    sim::CampaignOptions opts;
    opts.jobs = 1;
    ASSERT_TRUE(sim::runCampaign(spec, dir, opts).completed);

    // A complete line nested far past the parser's cap: corrupt, not
    // a stack overflow.
    std::FILE *f = std::fopen((dir + "/journal.jsonl").c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs((std::string(100000, '[') + "\n").c_str(), f);
    std::fclose(f);

    sim::JournalContents journal =
        sim::CampaignJournal::read(dir + "/journal.jsonl");
    EXPECT_TRUE(journal.headerOk);
    EXPECT_EQ(journal.cells.size(), 1u);
    EXPECT_EQ(journal.corruptLines, 1u);
}

TEST(Campaign, UnknownWorkloadIsRejectedUpFront)
{
    sim::CampaignSpec spec = smallSpec();
    spec.workloads = {"no-such-workload"};
    std::string dir = freshDir("badspec");
    try {
        sim::runCampaign(spec, dir, {});
        ADD_FAILURE() << "unknown workload accepted";
    } catch (const sim::SimError &err) {
        EXPECT_EQ(err.code(), sim::ErrorCode::UnknownWorkload);
    }
}

TEST(VerifyGolden, GoldenCellIsFig7MicrothreadCell)
{
    // One cell, one store key: the golden cell is fig7's microthread
    // column, built by the same cellConfig.
    sim::CampaignSpec verify = sim::verifyGoldenSpec({"comp"}, false);
    std::vector<sim::CampaignCell> cells = sim::campaignCells(verify);
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].name, "comp/microthread/s0");
    EXPECT_EQ(cells[3].name, "comp/oracle-all-branches/s0");
    sim::MachineConfig golden = sim::cellConfig(verify, cells[0]);
    EXPECT_EQ(golden.mode, sim::goldenMachineConfig().mode);
    EXPECT_EQ(sim::configFingerprint(golden),
              sim::configFingerprint(sim::goldenMachineConfig()));

    sim::CampaignSpec fig7;
    fig7.name = "fig7_realistic";
    fig7.workloads = {"comp"};
    fig7.variants = fig7Variants();
    sim::CampaignCell fig7_micro = sim::campaignCells(fig7)[1];
    ASSERT_EQ(fig7_micro.name, cells[0].name);
    uint64_t hash = sim::programHash(workloads::makeWorkload("comp", {}));
    EXPECT_EQ(sim::ResultStore::cellKey(hash, golden, 0),
              sim::ResultStore::cellKey(
                  hash, sim::cellConfig(fig7, fig7_micro), 0));
}

TEST(VerifyGolden, FaultVariantsArmEverySiteOnTheGoldenConfig)
{
    sim::CampaignSpec spec = sim::verifyGoldenSpec({"comp"}, true);
    const std::vector<sim::FaultSite> &sites = sim::allFaultSites();
    ASSERT_EQ(spec.variants.size(), 4 + sites.size());
    std::vector<sim::CampaignCell> cells = sim::campaignCells(spec);
    for (size_t s = 0; s < sites.size(); s++) {
        const sim::CampaignCell &cell = cells[4 + s];
        EXPECT_EQ(cell.variant.name, sim::faultSiteName(sites[s]));
        sim::MachineConfig want = sim::goldenMachineConfig();
        want.faults.site = sites[s];
        want.faults.count = sim::kVerifyFaultCount;
        EXPECT_EQ(sim::configFingerprint(sim::cellConfig(spec, cell)),
                  sim::configFingerprint(want));
        EXPECT_EQ(sim::cellConfig(spec, cell).mode, want.mode);
    }
}

/** A complete verify-golden outcome for comp with every fault site
 *  armed, whose cells all hold @p stats and fire every site, plus a
 *  golden directory holding @p stats as comp's snapshot. */
sim::CampaignOutcome
syntheticVerifyOutcome(const sim::Stats &stats, std::string *golden_dir)
{
    sim::CampaignOutcome outcome;
    outcome.cells =
        sim::campaignCells(sim::verifyGoldenSpec({"comp"}, true));
    outcome.results.resize(outcome.cells.size());
    for (sim::BatchResult &result : outcome.results) {
        result.stats = stats;
        result.faults.injected = 3;
    }
    outcome.results[3].stats.usedMispredicts = 0;   // full oracle
    *golden_dir = freshDir("verify-golden");
    EXPECT_FALSE(sim::writeGoldenFile(
                     *golden_dir, {"comp", sim::kGoldenConfigName, stats})
                     .empty());
    return outcome;
}

TEST(VerifyGolden, CheckNamesEachKindOfFailure)
{
    sim::Stats stats;
    stats.retiredInsts = 1000;
    stats.condBranches = 100;
    stats.condHwMispredicts = 10;
    stats.usedMispredicts = 10;
    std::string golden;
    const sim::CampaignOutcome clean =
        syntheticVerifyOutcome(stats, &golden);
    auto check = [&](const sim::CampaignOutcome &outcome) {
        return sim::checkVerifyGolden(outcome, golden, {});
    };
    sim::VerifyReport ok = check(clean);
    EXPECT_EQ(ok.exitStatus(), 0) << ok.log;
    EXPECT_EQ(ok.log, "");
    ASSERT_EQ(ok.injected.size(), sim::allFaultSites().size());
    EXPECT_EQ(ok.injected[0].first, "pred-cache-flip");
    EXPECT_EQ(ok.injected[0].second, 3u);

    // A site that never fires fails the run, by name.
    sim::CampaignOutcome silent = clean;
    silent.results[5].faults.injected = 0;
    sim::VerifyReport report = check(silent);
    EXPECT_EQ(report.exitStatus(), 1);
    EXPECT_EQ(report.failedRelations, 1);
    EXPECT_EQ(report.log,
              "FAULT SITE NEVER FIRED pred-cache-drop: no workload took "
              "a fault\n");

    // A fault that changes the committed stream.
    sim::CampaignOutcome steered = clean;
    steered.results.back().stats.retiredInsts++;
    report = check(steered);
    EXPECT_EQ(report.failedRelations, 1);
    EXPECT_EQ(report.log.rfind("ARCH MISMATCH comp/spawn-delay/s0: "
                               "retiredInsts: 1001 != 1000",
                               0),
              0u)
        << report.log;

    // A broken mode relation: a full oracle that used a misprediction.
    sim::CampaignOutcome oracle = clean;
    oracle.results[3].stats.usedMispredicts = 1;
    report = check(oracle);
    EXPECT_EQ(report.failedRelations, 1);
    EXPECT_NE(report.log.find("RELATION FAIL comp: used mispredicts "
                              "oracle-all-branches == 0"),
              std::string::npos)
        << report.log;

    // Golden drift, then the same drift allowlisted.
    sim::CampaignOutcome drifted = clean;
    for (sim::BatchResult &result : drifted.results)
        result.stats.cycles = 5;
    report = check(drifted);
    EXPECT_EQ(report.drifted, 1);
    EXPECT_EQ(report.exitStatus(), 1);
    report = sim::checkVerifyGolden(
        drifted, golden, sim::DriftAllowlist::parse("comp:cycles"));
    EXPECT_EQ(report.allowed, 1);
    EXPECT_EQ(report.exitStatus(), 0);

    // A missing snapshot is exit 2.
    report = sim::checkVerifyGolden(clean, golden + "/absent", {});
    EXPECT_EQ(report.missing, 1);
    EXPECT_EQ(report.exitStatus(), 2);
}

TEST(VerifyGolden, M88ksimNeverFillsThePredictionCache)
{
    // m88ksim writes no Prediction Cache entry (golden pcacheWrites
    // is 0), so its two prediction-cache sites find no target: the
    // run fails and names both.
    sim::CampaignOptions opts;
    opts.jobs = 2;
    sim::CampaignOutcome outcome = sim::runCampaign(
        sim::verifyGoldenSpec({"m88ksim"}, true), freshDir("m88ksim"),
        opts);
    ASSERT_TRUE(outcome.completed);
    ASSERT_EQ(outcome.failed, 0u);
    sim::VerifyReport report =
        sim::checkVerifyGolden(outcome, SSMT_GOLDEN_DIR, {});
    EXPECT_EQ(report.drifted + report.missing, 0) << report.log;
    EXPECT_EQ(report.failedRelations, 2) << report.log;
    EXPECT_EQ(report.exitStatus(), 1);
    EXPECT_EQ(report.log,
              "FAULT SITE NEVER FIRED pred-cache-flip: no workload took "
              "a fault\n"
              "FAULT SITE NEVER FIRED pred-cache-drop: no workload took "
              "a fault\n");
}

} // namespace
