/**
 * @file
 * Subprocess isolation tests: clean jobs must produce byte-identical
 * results in-process and isolated (at any worker count), a crashing
 * or hanging child must become a typed error slot while every other
 * job completes, the ssmt-job-result-v1 codec must round-trip, and
 * the per-site warning registry must attribute child warnings to the
 * job that fired them.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "sim/batch_runner.hh"
#include "sim/golden.hh"
#include "sim/job_codec.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/sim_error.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

/** A fast mixed batch: synthetic kernel under three modes, series
 *  sampling on so the artifact path is exercised too. */
std::vector<sim::BatchJob>
smallBatch()
{
    isa::Program prog = workloads::makeSynthetic({});
    std::vector<sim::BatchJob> batch;
    for (sim::Mode mode :
         {sim::Mode::Baseline, sim::Mode::Microthread,
          sim::Mode::OracleDifficultPath}) {
        sim::MachineConfig cfg;
        cfg.mode = mode;
        cfg.sampleInterval = 500;
        batch.push_back(
            {std::string("synth/") + sim::modeName(mode), prog, cfg});
    }
    return batch;
}

/** Byte-level equality witness for one result: golden counters plus
 *  the canonical series serialization. */
std::string
witness(const sim::BatchResult &r, const std::string &name)
{
    return sim::goldenJson({name, "test", r.stats}) +
           sim::seriesJson(r.artifacts.series);
}

TEST(ProcIsolate, CleanJobsByteIdenticalToInProcess)
{
    std::vector<sim::BatchJob> batch = smallBatch();
    std::vector<sim::BatchResult> in_process =
        sim::BatchRunner(2).run(batch);

    for (unsigned jobs : {1u, 4u}) {
        sim::BatchPolicy policy;
        policy.isolate = true;
        std::vector<sim::BatchResult> isolated =
            sim::BatchRunner(jobs).run(batch, policy);
        ASSERT_EQ(isolated.size(), batch.size());
        for (size_t i = 0; i < batch.size(); i++) {
            SCOPED_TRACE(batch[i].name + " jobs=" +
                         std::to_string(jobs));
            EXPECT_TRUE(isolated[i].ok()) << isolated[i].error;
            EXPECT_EQ(isolated[i].attempts, 1u);
            EXPECT_EQ(witness(isolated[i], batch[i].name),
                      witness(in_process[i], batch[i].name));
        }
    }
}

TEST(ProcIsolate, CrashedChildIsContained)
{
    const struct
    {
        sim::CrashKind kind;
        sim::ErrorCode want;
    } cases[] = {
        {sim::CrashKind::Segv, sim::ErrorCode::JobCrashed},
        {sim::CrashKind::Abort, sim::ErrorCode::JobCrashed},
        {sim::CrashKind::Exit, sim::ErrorCode::JobCrashed},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(sim::crashKindName(c.kind));
        std::vector<sim::BatchJob> batch = smallBatch();
        batch[1].crash = c.kind;

        sim::BatchPolicy policy;
        policy.isolate = true;
        std::vector<sim::BatchResult> results =
            sim::BatchRunner(2).run(batch, policy);

        EXPECT_TRUE(results[0].ok()) << results[0].error;
        EXPECT_TRUE(results[2].ok()) << results[2].error;
        EXPECT_EQ(results[1].errorCode, c.want)
            << results[1].error;
        EXPECT_FALSE(results[1].error.empty());
    }
}

TEST(ProcIsolate, HungChildKilledByWallDeadline)
{
    std::vector<sim::BatchJob> batch = smallBatch();
    batch[1].crash = sim::CrashKind::Hang;

    sim::BatchPolicy policy;
    policy.isolate = true;
    policy.wallDeadlineSeconds = 1.0;
    std::vector<sim::BatchResult> results =
        sim::BatchRunner(2).run(batch, policy);

    EXPECT_TRUE(results[0].ok()) << results[0].error;
    EXPECT_TRUE(results[2].ok()) << results[2].error;
    EXPECT_EQ(results[1].errorCode, sim::ErrorCode::JobKilled)
        << results[1].error;
}

// RLIMIT_AS-based OOM containment conflicts with AddressSanitizer's
// shadow-memory reservation, so ASan builds skip it. GCC announces
// ASan with __SANITIZE_ADDRESS__, Clang with __has_feature.
#if defined(__SANITIZE_ADDRESS__)
#define SSMT_ASAN_SKIP_OOM 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SSMT_ASAN_SKIP_OOM 1
#endif
#endif
#ifndef SSMT_ASAN_SKIP_OOM
TEST(ProcIsolate, OomChildKilledByAddressSpaceLimit)
{
    std::vector<sim::BatchJob> batch = smallBatch();
    batch[1].crash = sim::CrashKind::Oom;

    sim::BatchPolicy policy;
    policy.isolate = true;
    policy.memLimitMb = 256;
    // Backstop: even if the allocator somehow survives the rlimit,
    // the deadline reaps the child instead of hanging the test.
    policy.wallDeadlineSeconds = 30.0;
    std::vector<sim::BatchResult> results =
        sim::BatchRunner(2).run(batch, policy);

    EXPECT_TRUE(results[0].ok()) << results[0].error;
    EXPECT_TRUE(results[2].ok()) << results[2].error;
    EXPECT_FALSE(results[1].ok());
    EXPECT_TRUE(results[1].errorCode == sim::ErrorCode::JobCrashed ||
                results[1].errorCode == sim::ErrorCode::JobKilled)
        << results[1].error;
}
#endif

TEST(ProcIsolate, InProcessRunRefusesCrashInjection)
{
    std::vector<sim::BatchJob> batch = smallBatch();
    batch[1].crash = sim::CrashKind::Segv;

    // No isolate: the deliberate crash must be refused, not taken.
    std::vector<sim::BatchResult> results =
        sim::BatchRunner(2).run(batch);
    EXPECT_TRUE(results[0].ok());
    EXPECT_TRUE(results[2].ok());
    EXPECT_EQ(results[1].errorCode, sim::ErrorCode::ConfigInvalid);
}

TEST(ProcIsolate, ChildWarningsAttributedToTheirJob)
{
    std::vector<sim::BatchJob> batch = smallBatch();
    // An unopenable trace stream fires exactly one SSMT_WARN in the
    // core constructor — inside the child for job 1 only.
    batch[1].config.tracePath =
        "/nonexistent-ssmt-dir/trace.jsonl";

    sim::BatchPolicy policy;
    policy.isolate = true;
    std::vector<sim::BatchResult> results =
        sim::BatchRunner(2).run(batch, policy);

    ASSERT_TRUE(results[1].ok()) << results[1].error;
    ASSERT_EQ(results[1].warnings.size(), 1u);
    EXPECT_EQ(results[1].warnings[0].count, 1u);
    EXPECT_EQ(results[1].warnings[0].suppressed, 0u);
    EXPECT_NE(results[1].warnings[0].site.find("ssmt_core"),
              std::string::npos);
    EXPECT_TRUE(results[0].warnings.empty());
    EXPECT_TRUE(results[2].warnings.empty());
}

TEST(WarnSites, RegistryCountsAndDelta)
{
    using ssmt::detail::warnSiteCounts;
    using ssmt::detail::warnSiteDelta;

    std::vector<WarnSiteCount> before = warnSiteCounts();
    // Fire one site kWarnVerbatimPerSite + 3 times: the tail beyond
    // the verbatim budget must show up as `suppressed`.
    const uint64_t fired = ssmt::detail::kWarnVerbatimPerSite + 3;
    for (uint64_t i = 0; i < fired; i++)
        SSMT_WARN("warn-site registry test (deliberate)");
    std::vector<WarnSiteCount> after = warnSiteCounts();

    std::vector<WarnSiteCount> delta = warnSiteDelta(before, after);
    ASSERT_EQ(delta.size(), 1u);
    EXPECT_NE(delta[0].site.find("test_proc_isolate"),
              std::string::npos);
    EXPECT_EQ(delta[0].count, fired);
    EXPECT_EQ(delta[0].suppressed, 3u);

    // The registry view is sorted and cumulative.
    bool found = false;
    for (const WarnSiteCount &site : after) {
        if (site.site == delta[0].site) {
            found = true;
            EXPECT_GE(site.count, fired);
        }
    }
    EXPECT_TRUE(found);
    EXPECT_TRUE(warnSiteDelta(after, after).empty());
}

TEST(JobCodec, RoundTripPreservesEverything)
{
    std::vector<sim::BatchJob> batch = smallBatch();
    sim::BatchResult original;
    std::string checkpoint;
    bool final_attempt = sim::detail::runAttempt(
        batch[1], sim::BatchPolicy{}, 0, checkpoint, original);
    ASSERT_TRUE(original.ok()) << original.error;
    ASSERT_TRUE(final_attempt);

    std::string wire =
        sim::encodeJobResult(original, checkpoint, final_attempt);
    sim::BatchResult decoded;
    std::string decoded_checkpoint;
    bool decoded_final = false;
    sim::decodeJobResult(wire, batch[1].config, &decoded,
                         &decoded_checkpoint, &decoded_final);

    EXPECT_EQ(decoded_final, final_attempt);
    EXPECT_EQ(decoded_checkpoint, checkpoint);
    EXPECT_EQ(decoded.errorCode, original.errorCode);
    EXPECT_EQ(decoded.attempts, original.attempts);
    EXPECT_EQ(witness(decoded, "rt"), witness(original, "rt"));
    // Re-encoding must reproduce the wire bytes (canonical format).
    EXPECT_EQ(sim::encodeJobResult(decoded, decoded_checkpoint,
                                   decoded_final),
              wire);
    // hostSeconds never travels; the parent re-stamps it.
    EXPECT_EQ(decoded.hostSeconds, 0.0);
}

TEST(JobCodec, MalformedDocumentsThrowParseError)
{
    std::vector<sim::BatchJob> batch = smallBatch();
    sim::BatchResult result;
    std::string checkpoint;
    sim::detail::runAttempt(batch[0], sim::BatchPolicy{}, 0,
                            checkpoint, result);
    std::string wire = sim::encodeJobResult(result, checkpoint, true);

    auto expect_parse_error = [&](const std::string &text) {
        sim::BatchResult out;
        std::string cp;
        bool fin;
        try {
            sim::decodeJobResult(text, batch[0].config, &out, &cp,
                                 &fin);
            ADD_FAILURE() << "decode accepted a corrupt document";
        } catch (const sim::SimError &err) {
            EXPECT_EQ(err.code(), sim::ErrorCode::ParseError)
                << err.what();
        }
    };

    expect_parse_error("");
    expect_parse_error("not json at all");
    expect_parse_error("{\"schema\": \"wrong-schema\"}");
    // Truncations at several depths of the real document.
    for (size_t keep : {wire.size() / 10, wire.size() / 2,
                        wire.size() - 2})
        expect_parse_error(wire.substr(0, keep));
}

TEST(ProcIsolate, RetriesAndBackoffStillRetryInChildren)
{
    // A tiny cycle budget trips the watchdog; with retries the budget
    // extension lets attempt 2 finish. The isolated path must carry
    // the retry/checkpoint plumbing over the wire.
    std::vector<sim::BatchJob> batch = smallBatch();

    // The synthetic program runs ~123k cycles; a 30k budget trips the
    // watchdog on attempt 1 and the resumed attempts finish well
    // inside the retry allowance.
    sim::BatchPolicy policy;
    policy.isolate = true;
    policy.cycleBudget = 30000;
    policy.maxRetries = 8;
    policy.resumeOnWatchdog = true;
    policy.backoffMs = 1;
    std::vector<sim::BatchResult> isolated =
        sim::BatchRunner(2).run(batch, policy);

    sim::BatchPolicy in_process_policy = policy;
    in_process_policy.isolate = false;
    std::vector<sim::BatchResult> in_process =
        sim::BatchRunner(2).run(batch, in_process_policy);

    for (size_t i = 0; i < batch.size(); i++) {
        SCOPED_TRACE(batch[i].name);
        ASSERT_TRUE(isolated[i].ok()) << isolated[i].error;
        ASSERT_TRUE(in_process[i].ok()) << in_process[i].error;
        EXPECT_GT(isolated[i].attempts, 1u);
        EXPECT_EQ(isolated[i].attempts, in_process[i].attempts);
        EXPECT_EQ(witness(isolated[i], batch[i].name),
                  witness(in_process[i], batch[i].name));
    }
}

} // namespace
