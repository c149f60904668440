/**
 * @file
 * Subprocess isolation tests: clean jobs must produce byte-identical
 * results in-process and isolated (at any worker count, with more
 * jobs than workers), a crashing or hanging worker must turn its job
 * into a typed error slot while every other job completes on the
 * survivors or a replacement, limits must hold per job, the parent
 * must sleep while workers run, no worker may outlive the call, and
 * the ssmt-job-result-v1 codec must round-trip.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>

#include "sim/batch_runner.hh"
#include "sim/golden.hh"
#include "sim/job_codec.hh"
#include "sim/proc_runner.hh"
#include "sim/sim_error.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

/** A fast mixed batch: synthetic kernel under three modes. */
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
        batch.push_back(
            {std::string("synth/") + sim::modeName(mode), prog, cfg});
    }
    return batch;
}

/** Byte-level equality witness for one result: its golden
 *  counters. */
std::string
witness(const sim::BatchResult &r, const std::string &name)
{
    return sim::goldenJson({name, "test", r.stats});
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
    // The bad_alloc ends the worker with its documented status; it
    // must not unwind into this test's frames inside the child.
    EXPECT_EQ(results[1].errorCode, sim::ErrorCode::JobCrashed);
    EXPECT_EQ(results[1].error,
              "[job-crashed] isolate: child exited with status " +
                  std::to_string(sim::kWorkerUncaught) +
                  " without a result");
}
#endif

TEST(ProcIsolate, MoreJobsThanWorkersByteIdenticalToInProcess)
{
    // Six jobs on one worker: each result must not depend on the
    // jobs that ran before it in the same process.
    std::vector<sim::BatchJob> batch = smallBatch();
    for (sim::BatchJob job : smallBatch()) {
        job.name += "/again";
        batch.push_back(job);
    }
    std::vector<sim::BatchResult> in_process =
        sim::BatchRunner(1).run(batch);

    sim::BatchPolicy policy;
    policy.isolate = true;
    std::vector<sim::BatchResult> isolated =
        sim::BatchRunner(1).run(batch, policy);
    ASSERT_EQ(isolated.size(), batch.size());
    for (size_t i = 0; i < batch.size(); i++) {
        SCOPED_TRACE(batch[i].name);
        EXPECT_TRUE(isolated[i].ok()) << isolated[i].error;
        EXPECT_EQ(witness(isolated[i], batch[i].name),
                  witness(in_process[i], batch[i].name));
    }
}

TEST(ProcIsolate, CrashMidBatchHandsTheRestToAReplacement)
{
    // One worker: job 1 kills it, so jobs 2 and 3 can only run on
    // the replacement forked after it.
    std::vector<sim::BatchJob> batch = smallBatch();
    batch.push_back(batch[0]);
    batch[3].name += "/again";
    batch[1].crash = sim::CrashKind::Segv;
    std::vector<sim::BatchResult> in_process(batch.size());
    for (size_t i : {0, 2, 3})
        sim::detail::runJobOnce(batch[i], sim::BatchPolicy{},
                                in_process[i]);

    sim::BatchPolicy policy;
    policy.isolate = true;
    std::vector<size_t> order;
    std::vector<sim::BatchResult> results = sim::BatchRunner(1).run(
        batch, policy,
        [&](size_t i, const sim::BatchResult &) { order.push_back(i); });

    // (Under ASan the SEGV ends the worker with exit status 1, not
    // the signal, so only the error code is pinned.)
    EXPECT_EQ(results[1].errorCode, sim::ErrorCode::JobCrashed)
        << results[1].error;
    for (size_t i : {0, 2, 3}) {
        SCOPED_TRACE(batch[i].name);
        EXPECT_TRUE(results[i].ok()) << results[i].error;
        EXPECT_EQ(witness(results[i], batch[i].name),
                  witness(in_process[i], batch[i].name));
    }
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3}));
}

/** User plus system CPU time this process has used, in seconds. */
double
parentCpuSeconds()
{
    struct rusage usage;
    ::getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const struct timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

TEST(ProcIsolate, CpuLimitHoldsPerJobNotPerWorker)
{
    // Jobs that each use well under half of a 1 s limit, but about
    // 2.5 s together, all on one worker. A limit armed once, when the
    // worker starts, would be 2 s (its first fraction of a second
    // rounds up) and would SIGXCPU one of the later jobs.
    sim::BatchJob job;
    job.name = "comp/baseline";
    job.program = workloads::makeCompress({16, 0x5eed});
    job.config.mode = sim::Mode::Baseline;
    sim::BatchResult probe;
    const double before = parentCpuSeconds();
    sim::detail::runJobOnce(job, sim::BatchPolicy{}, probe);
    const double per_job = parentCpuSeconds() - before;
    const size_t count = static_cast<size_t>(2.5 / per_job) + 1;
    const std::string sizing = "per_job " + std::to_string(per_job) +
                               " s, count " + std::to_string(count);
    ASSERT_TRUE(probe.ok()) << probe.error << " (" << sizing << ")";
    ASSERT_LT(per_job, 0.4) << "the premise needs a job well under "
                               "half the limit (" << sizing << ")";
    std::vector<sim::BatchJob> batch(count, job);

    sim::BatchPolicy policy;
    policy.isolate = true;
    policy.cpuLimitSeconds = 1;
    std::vector<sim::BatchResult> results =
        sim::BatchRunner(1).run(batch, policy);
    for (size_t i = 0; i < count; i++) {
        SCOPED_TRACE("job " + std::to_string(i) + " of " +
                     std::to_string(count) + ", " + sizing);
        EXPECT_TRUE(results[i].ok()) << results[i].error;
    }

    // One job with all that work runs past its budget: the kernel's
    // SIGXCPU ends its worker, and the job is reported as killed. The
    // runaway starts a fresh worker, whose first fraction of a second
    // rounds up to 1 s, so its real limit is 2 s. It is sized at 3x
    // that, with no retire cap to stop it short, so a probe slowed by
    // a busy host still leaves it far past the limit; the kernel
    // stops it there, so the size costs no time.
    const size_t runaway_jobs =
        static_cast<size_t>(3 * 2.0 / per_job) + 1;
    sim::BatchJob runaway = job;
    runaway.program =
        workloads::makeCompress({16 * runaway_jobs, 0x5eed});
    runaway.config.maxInsts = ~0ull;
    results = sim::BatchRunner(1).run({runaway}, policy);
    EXPECT_EQ(results[0].errorCode, sim::ErrorCode::JobKilled)
        << results[0].error << " (" << sizing << ", runaway "
        << runaway_jobs << " jobs' work)";
    EXPECT_EQ(results[0].error, "[job-killed] isolate: child exceeded "
                                "the cpu limit (SIGXCPU)")
        << sizing;
}

/** True when this process has no child, running or unreaped. */
bool
noChildLeft()
{
    int status = 0;
    return ::waitpid(-1, &status, WNOHANG) == -1 && errno == ECHILD;
}

TEST(ProcIsolate, NoWorkerOutlivesTheCall)
{
    std::vector<sim::BatchJob> batch = smallBatch();
    for (const sim::BatchJob &job : smallBatch())
        batch.push_back(job);
    sim::BatchPolicy policy;
    policy.isolate = true;
    ASSERT_TRUE(noChildLeft());

    // Clean.
    for (const sim::BatchResult &r :
         sim::BatchRunner(2).run(batch, policy))
        EXPECT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(noChildLeft()) << "after a clean batch";

    // Cancelled after the first result: the rest never start.
    std::atomic<bool> cancel{false};
    sim::BatchPolicy cancelling = policy;
    cancelling.cancel = &cancel;
    std::vector<sim::BatchResult> results = sim::BatchRunner(2).run(
        batch, cancelling,
        [&](size_t, const sim::BatchResult &) { cancel.store(true); });
    EXPECT_EQ(results.back().attempts, 0u);
    EXPECT_TRUE(noChildLeft()) << "after a cancelled batch";

    // onResult throws while another worker hangs with no deadline:
    // the hung worker must be killed, not waited for.
    batch[1].crash = sim::CrashKind::Hang;
    EXPECT_THROW(sim::BatchRunner(2).run(
                     batch, policy,
                     [](size_t, const sim::BatchResult &) {
                         throw std::runtime_error("hook failed");
                     }),
                 std::runtime_error);
    EXPECT_TRUE(noChildLeft()) << "after onResult threw";
}

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

TEST(JobCodec, RoundTripPreservesEverything)
{
    std::vector<sim::BatchJob> batch = smallBatch();
    sim::BatchResult original;
    sim::detail::runJobOnce(batch[1], sim::BatchPolicy{}, original);
    ASSERT_TRUE(original.ok()) << original.error;
    EXPECT_EQ(original.attempts, 1u);

    std::string wire = sim::encodeJobResult(original, "", true);
    sim::BatchResult decoded;
    std::string decoded_checkpoint;
    bool decoded_final = false;
    sim::decodeJobResult(wire, batch[1].config, &decoded,
                         &decoded_checkpoint, &decoded_final);

    EXPECT_TRUE(decoded_final);
    EXPECT_EQ(decoded_checkpoint, "");
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
    sim::detail::runJobOnce(batch[0], sim::BatchPolicy{}, result);
    std::string wire = sim::encodeJobResult(result, "", true);

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

TEST(ProcIsolate, ParentSleepsWhileAChildHoldsTheSlot)
{
    // One slot: a hung child holds it until its 1 s deadline while a
    // clean job waits to start. The parent must sleep in poll() until
    // the deadline falls due, not spin on the waiting job.
    std::vector<sim::BatchJob> batch = smallBatch();
    batch.resize(2);
    batch[0].crash = sim::CrashKind::Hang;

    sim::BatchPolicy policy;
    policy.isolate = true;
    policy.wallDeadlineSeconds = 1.0;
    const double before = parentCpuSeconds();
    std::vector<sim::BatchResult> results =
        sim::BatchRunner(1).run(batch, policy);
    const double used = parentCpuSeconds() - before;

    EXPECT_EQ(results[0].errorCode, sim::ErrorCode::JobKilled)
        << results[0].error;
    EXPECT_EQ(results[0].attempts, 1u);
    EXPECT_TRUE(results[1].ok()) << results[1].error;
    // RUSAGE_SELF excludes the children's time; a spinning parent
    // burns about the whole 1 s deadline.
    EXPECT_LT(used, 0.25);
}

} // namespace
