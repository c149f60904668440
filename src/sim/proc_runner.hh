/**
 * @file
 * Subprocess-isolated batch execution: the crash-containment engine
 * behind BatchPolicy::isolate.
 *
 * A batch runs on a pool of at most `workers` long-lived child
 * processes, forked lazily and each joined to the parent by one
 * socketpair. A worker inherits the already-built batch by
 * copy-on-write, so the parent sends it only an 8-byte job index.
 * The worker runs that job's detail::runJobOnce, replies with a
 * length-prefixed ssmt-job-result-v1 document (sim/job_codec.hh) and
 * waits for the next index; EOF from the parent ends it. The parent
 * is a single-threaded event loop: poll() over the busy workers'
 * channels, nonblocking drains, wall-clock deadline SIGKILLs and
 * waitpid reaping. It hands out jobs in index order and sleeps in
 * poll() until a worker replies or a deadline falls due. After each
 * drain it gives idle workers their next jobs before it runs
 * onResult for the finished ones, so a slow hook (a campaign's store
 * write and journal fsync) overlaps the next simulations.
 *
 * Containment is per job. A worker that segfaults, aborts, OOMs,
 * hangs past its job's deadline, runs out of its job's CPU budget or
 * exits without a reply turns the job in flight into a typed error
 * slot (ErrorCode::JobCrashed / JobKilled), in submission order; a
 * new worker takes over the rest of the batch. A job whose worker
 * died between jobs never started: it goes to another worker, so
 * every job still runs once. No worker outlives runBatchIsolated, on
 * any path: a guard closes every channel, SIGKILLs the workers still
 * running a job and reaps them all, also when onResult throws.
 *
 * What the pool gives up is a fresh address space per job. A job's
 * result cannot depend on the jobs that ran before it in the same
 * worker: an in-process batch runs every job in one process, and
 * clean jobs produce BatchResults byte-identical to that path (the
 * wire format excludes host wall-clock for exactly this reason). What
 * changes is attribution: a job that silently corrupts memory could
 * make a later job in the same worker crash. Warnings are
 * rate-limited per worker, as they are per process in-process.
 *
 * fork() without exec() is only safe when no other thread is mid-
 * operation holding a lock the child would inherit. BatchRunner never
 * starts threads in isolate mode, and BatchRunner::forEach joins
 * every thread it starts before returning, so no library thread is
 * alive across a fork() here and no guard is needed; that holds for
 * the replacement workers forked mid-batch too. Callers must not
 * invoke this concurrently with thread activity of their own (for
 * example from inside a forEach body).
 */

#ifndef SSMT_SIM_PROC_RUNNER_HH
#define SSMT_SIM_PROC_RUNNER_HH

#include <vector>

#include "sim/batch_runner.hh"

namespace ssmt
{
namespace sim
{

/**
 * Exit statuses of a worker that ends without replying for its job
 * in flight, which then becomes JobCrashed ("child exited with status
 * N without a result"). A worker whose channel reaches EOF between
 * jobs exits with 0.
 */
constexpr int kWorkerChannelFailed = 97;  ///< its channel broke
constexpr int kWorkerCrashReturned = 98;  ///< crash injection returned
/** An exception escaped the job, such as the bad_alloc that ends a
 *  CrashKind::Oom job under RLIMIT_AS. */
constexpr int kWorkerUncaught = 99;

/**
 * Run @p batch with every job isolated in child processes; the
 * backend of BatchRunner::run when policy.isolate is set (call it
 * through BatchRunner). @p workers caps the pool. @p onResult fires
 * on the parent thread once per finished job, in completion order.
 */
std::vector<BatchResult>
runBatchIsolated(const std::vector<BatchJob> &batch,
                 const BatchPolicy &policy, unsigned workers,
                 const BatchRunner::ResultHook &onResult);

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_PROC_RUNNER_HH
