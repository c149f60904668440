/**
 * @file
 * BatchRunner: fans independent (Program, MachineConfig) simulation
 * jobs out across host cores, bounded by this runner's jobs() cap.
 *
 * Every batch runs on one fork-join primitive, forEach(): it starts
 * up to jobs() threads, lets them claim indices by atomic ticket,
 * and joins them all before returning. No thread outlives a call,
 * so a process that is not inside forEach() is single-threaded —
 * the property the subprocess path (sim/proc_runner.hh) relies on
 * to fork() safely.
 *
 * Every experiment cell in the paper-reproduction suite — a workload
 * under a machine configuration — is an isolated SsmtCore, so cells
 * can run concurrently with *bit-identical* results: each job writes
 * only its own result slot, and the output order is the submission
 * order regardless of which worker finished first. `--jobs 1`
 * degenerates to a plain serial loop on the calling thread.
 *
 * Worker count resolution: sim::resolveJobs (sim/jobs.hh) — explicit
 * request, then SSMT_JOBS, then host cores.
 */

#ifndef SSMT_SIM_BATCH_RUNNER_HH
#define SSMT_SIM_BATCH_RUNNER_HH

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "isa/program.hh"
#include "sim/faultinject.hh"
#include "sim/logging.hh"
#include "sim/machine_config.hh"
#include "sim/sim_error.hh"
#include "sim/sim_runner.hh"
#include "sim/stats.hh"

namespace ssmt
{
namespace sim
{

/**
 * Deliberate child-process failure, for testing crash containment.
 * Honored only by the subprocess path (BatchPolicy::isolate): the
 * child performs the named misbehavior *instead of* simulating, so a
 * tier2-crash test can assert that a segfaulting, aborting,
 * OOM-killed or hung cell becomes a typed error slot while every
 * other cell completes. In-process runs refuse a crash-armed job
 * with ErrorCode::ConfigInvalid rather than take down the whole
 * batch.
 */
enum class CrashKind : uint8_t
{
    None,   ///< behave normally
    Segv,   ///< dereference null (SIGSEGV)
    Abort,  ///< std::abort() (SIGABRT)
    Oom,    ///< allocate until the rlimit kills the child
    Hang,   ///< loop forever (needs a wall deadline to be reaped)
    Exit    ///< _exit(3) without reporting a result
};

const char *crashKindName(CrashKind kind);

/** Parse "segv" etc.; @return false on an unknown name. */
bool parseCrashKind(const std::string &name, CrashKind *out);

/** One independent simulation cell. */
struct BatchJob
{
    std::string name;       ///< label carried through to reports
    isa::Program program;
    MachineConfig config;
    /** Injected child failure (isolate mode only; see CrashKind). */
    CrashKind crash = CrashKind::None;
};

/** The outcome of one BatchJob, in submission order. */
struct BatchResult
{
    Stats stats;
    double hostSeconds = 0.0;   ///< host wall-clock spent on this job
    /** Empty on success; the final attempt's diagnostic otherwise. */
    std::string error;
    ErrorCode errorCode = ErrorCode::None;
    /** Simulation attempts consumed (1 on clean success; up to
     *  1 + BatchPolicy::maxRetries on recoverable failures; 0 when
     *  the batch was cancelled before this job started). */
    unsigned attempts = 0;
    /** What the job's fault plan did, if one was configured. */
    FaultStats faults;
    /** Observability captures (config.sampleInterval /
     *  config.traceCapacity); empty when those knobs are off. Like
     *  Stats, bit-identical across worker counts. */
    RunArtifacts artifacts;
    /** SSMT_WARN sites this job fired, with per-site totals
     *  including the rate-limited tail. Exact in isolate mode (the
     *  child is single-threaded); best-effort under concurrent
     *  in-process workers, where sites shared between jobs may
     *  attribute counts to whichever job observed them. */
    std::vector<WarnSiteCount> warnings;

    bool ok() const { return errorCode == ErrorCode::None; }
};

/** Per-batch failure handling knobs. */
struct BatchPolicy
{
    /** Extra attempts after a *recoverable* failure (SimError with
     *  recoverable() true). Non-recoverable failures — bad configs,
     *  invariant violations — never retry. */
    unsigned maxRetries = 0;
    /** Per-job cycle watchdog; 0 disables it. A tripped watchdog is
     *  a recoverable failure. */
    uint64_t cycleBudget = 0;
    /**
     * Resume instead of restart after a tripped watchdog: each
     * attempt checkpoints the machine (ssmt-snapshot-v1) right at
     * its budget boundary, and the next attempt restores that
     * checkpoint with the budget extended to cycleBudget*(attempt+1)
     * — so an underprovisioned budget costs one more slice, not a
     * rerun from cycle 0. The resumed run's results are
     * byte-identical to an uninterrupted run with a sufficient
     * budget. Resuming never reseeds faults (the checkpoint carries
     * the fault RNG stream, and the seed is part of the config
     * fingerprint).
     */
    bool resumeOnWatchdog = false;

    // ---- Subprocess isolation (sim/proc_runner.hh) ----

    /**
     * Run every job in a sandboxed child process (fork, result back
     * over a pipe as canonical ssmt-job-result-v1 JSON). A job that
     * segfaults, aborts, OOMs or hangs becomes a JobCrashed/JobKilled
     * error slot; the batch always completes. Clean jobs produce
     * byte-identical BatchResults to an in-process run. The parent
     * stays single-threaded in this mode (fork from a threaded
     * process is not async-signal-safe), scheduling up to jobs()
     * concurrent children instead of threads.
     */
    bool isolate = false;
    /** Per-attempt wall-clock deadline for an isolated child; the
     *  parent SIGKILLs past-due children (JobKilled). 0 = none. */
    double wallDeadlineSeconds = 0.0;
    /** RLIMIT_AS cap for an isolated child, in MiB; 0 = none. */
    uint64_t memLimitMb = 0;
    /** RLIMIT_CPU cap for an isolated child, in seconds; the kernel
     *  SIGXCPUs a runaway child (JobKilled). 0 = none. */
    uint64_t cpuLimitSeconds = 0;
    /** Base delay before a retry; doubles per attempt (exponential
     *  backoff: backoffMs, 2*backoffMs, ...). 0 = retry at once. */
    unsigned backoffMs = 0;
    /**
     * Cooperative cancellation: when non-null and set, no *new* job
     * is started (in-flight jobs finish and report). Cancelled jobs
     * keep their default-constructed result slot (attempts == 0) and
     * never reach an onResult callback — exactly the state a
     * campaign journal sees after a mid-run kill, which is how the
     * resume path is tested deterministically.
     */
    const std::atomic<bool> *cancel = nullptr;
};

class BatchRunner
{
  public:
    /** @param jobs worker count; 0 = resolve via SSMT_JOBS / cores. */
    explicit BatchRunner(unsigned jobs = 0);

    unsigned jobs() const { return jobs_; }

    /**
     * Deterministic parallel-for: invoke @p fn(i) exactly once for
     * every i in [0, n), on up to jobs() threads (the caller is one
     * of them). @p fn must confine its writes to per-index state.
     * Exceptions are captured per index, every index still runs, and
     * the lowest-indexed exception is rethrown on the calling thread.
     * Every thread is joined before the call returns. Runs serially
     * on the calling thread when jobs() <= 1 or n <= 1; calls may
     * nest.
     */
    void forEach(size_t n, const std::function<void(size_t)> &fn) const;

    /**
     * Run a batch of simulation jobs; result i corresponds to
     * jobs[i]. Simulated Stats are byte-identical to running the
     * same jobs serially in order; only hostSeconds varies between
     * runs.
     *
     * Fault-tolerant: a failing job (thrown SimError or any other
     * exception) becomes a BatchResult with `error` set — it never
     * kills the batch, and every other job still completes.
     * Recoverable failures are retried per @p policy with a
     * deterministically re-mixed fault seed. Failed jobs are
     * summarized on stderr (rate-limited); use failureSummary() for
     * a report-ready digest.
     */
    std::vector<BatchResult> run(const std::vector<BatchJob> &batch,
                                 const BatchPolicy &policy) const
    {
        return run(batch, policy, nullptr);
    }

    std::vector<BatchResult>
    run(const std::vector<BatchJob> &batch) const
    {
        return run(batch, BatchPolicy{});
    }

    /** Per-result completion hook: called once per *finished* job
     *  (never for jobs skipped by policy.cancel), in completion
     *  order, from whichever worker finished the job — synchronize
     *  externally if it touches shared state. The campaign layer
     *  journals and stores each cell from here, so durability is
     *  per-cell, not per-batch. */
    using ResultHook = std::function<void(size_t, const BatchResult &)>;

    /** run() with a completion hook (see ResultHook). */
    std::vector<BatchResult> run(const std::vector<BatchJob> &batch,
                                 const BatchPolicy &policy,
                                 const ResultHook &onResult) const;

    /** The fault seed used for attempt @p attempt of a job whose
     *  plan was seeded with @p seed (attempt 0 returns @p seed).
     *  Pure and deterministic, so retried batches reproduce. */
    static uint64_t retrySeed(uint64_t seed, unsigned attempt);

    /** One line per failed result ("" when everything succeeded). */
    static std::string
    failureSummary(const std::vector<BatchJob> &batch,
                   const std::vector<BatchResult> &results);

  private:
    unsigned jobs_;
};

namespace detail
{

/**
 * One simulation attempt of @p job — the single code path both the
 * in-process retry loop and an isolated child execute, so the two
 * modes produce byte-identical BatchResults for clean jobs.
 *
 * @param attempt     0-based attempt number (drives retry reseeding
 *                    and the resumeOnWatchdog budget extension)
 * @param checkpoint  in: resume snapshot harvested from the previous
 *                    attempt ("" = cold start); out: the snapshot a
 *                    watchdog-expired attempt left behind (moved out
 *                    of result.artifacts)
 * @return true when the retry loop must stop: success, or a failure
 *         no retry can change.
 */
bool runAttempt(const BatchJob &job, const BatchPolicy &policy,
                unsigned attempt, std::string &checkpoint,
                BatchResult &result);

} // namespace detail

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_BATCH_RUNNER_HH
