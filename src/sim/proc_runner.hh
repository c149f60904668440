/**
 * @file
 * Subprocess-isolated batch execution: the crash-containment engine
 * behind BatchPolicy::isolate.
 *
 * Each attempt of each job runs in a forked child that inherits the
 * already-built Program and MachineConfig by copy-on-write, executes
 * exactly one detail::runAttempt under optional RLIMIT_AS /
 * RLIMIT_CPU caps, and writes its BatchResult back over a pipe as
 * canonical ssmt-job-result-v1 JSON (sim/job_codec.hh). The parent is
 * a single-threaded event loop — poll() over child pipes, nonblocking
 * drains, wall-clock deadline SIGKILLs, waitpid reaping — that
 * schedules up to `workers` concurrent children and drives retries
 * with exponential backoff. A job's attempts (retry, checkpoint→
 * resume) run one after another: the next child starts only after
 * the previous one has been reaped.
 *
 * Containment contract: a child that segfaults, aborts, OOMs, hangs
 * past its deadline or exits without a result becomes a typed error
 * slot (ErrorCode::JobCrashed / JobKilled) in submission order; every
 * other job still completes. Clean jobs produce BatchResults
 * byte-identical to the in-process path (the wire format excludes
 * host wall-clock for exactly this reason).
 *
 * fork() without exec() is only safe when no other thread is mid-
 * operation holding a lock the child would inherit. BatchRunner never
 * starts threads in isolate mode, and BatchRunner::forEach joins
 * every thread it starts before returning, so no library thread is
 * alive across a fork() here and no guard is needed. Callers must
 * not invoke this concurrently with thread activity of their own
 * (for example from inside a forEach body).
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
 * Run @p batch with every job isolated in child processes; the
 * backend of BatchRunner::run when policy.isolate is set (call it
 * through BatchRunner). @p workers caps concurrent children.
 * @p onResult fires on the parent thread once per finished job, in
 * completion order.
 */
std::vector<BatchResult>
runBatchIsolated(const std::vector<BatchJob> &batch,
                 const BatchPolicy &policy, unsigned workers,
                 const BatchRunner::ResultHook &onResult);

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_PROC_RUNNER_HH
