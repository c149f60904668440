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
 * Every thread forEach runs indices on, the caller's serial loop
 * included, holds a sim::RecycleTables scope (sim/table_pool.hh) for
 * the call: a cell's freed table memory parks on its thread and the
 * next cell there builds its core from it, without mapping or
 * faulting any. The scope closes, and releases every parked block,
 * before forEach returns.
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
#include "sim/machine_config.hh"
#include "sim/sim_error.hh"
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

/** The outcome of one BatchJob, in submission order: the counters
 *  its simulation computed, plus the host time it took. Nothing else
 *  — warnings go to stderr, and a run's series and trace reach only
 *  a runProgramChecked caller that asks for them (ssmt_trace) — so
 *  every field but hostSeconds is identical at any worker count,
 *  in-process or isolated. */
struct BatchResult
{
    Stats stats;
    /** Host wall-clock spent on this job. In-process: its run.
     *  Isolated: from its dispatch to a worker to its decoded result
     *  (or its worker's death), so a worker's fork is not in it. */
    double hostSeconds = 0.0;
    /** Empty on success; otherwise the job's diagnostic, which
     *  starts with its "[<errorCodeName>]" tag. */
    std::string error;
    ErrorCode errorCode = ErrorCode::None;
    /** 1 once the job ran (every job runs once), 0 when the batch
     *  was cancelled before this job started. */
    unsigned attempts = 0;
    /** What the job's fault plan did, if one was configured. */
    FaultStats faults;

    bool ok() const { return errorCode == ErrorCode::None; }
};

/**
 * Per-batch failure handling knobs. Every job runs once: a failure is
 * recorded in its result slot and never retried, since a
 * deterministic simulation would only repeat it. A campaign rerun
 * (sim/campaign.hh) is the retry, under whatever limits it sets.
 */
struct BatchPolicy
{
    /** Per-job cycle watchdog; 0 disables it. */
    uint64_t cycleBudget = 0;

    // ---- Subprocess isolation (sim/proc_runner.hh) ----

    /**
     * Run the batch on a pool of up to jobs() long-lived child
     * processes, each forked once and running one job after another;
     * results come back over a socketpair as canonical
     * ssmt-job-result-v1 JSON. A job that segfaults, aborts, OOMs or
     * hangs becomes a JobCrashed/JobKilled error slot, a new worker
     * takes over the rest, and the batch always completes. Clean jobs
     * produce byte-identical BatchResults to an in-process run. A job
     * shares its worker's address space with the jobs before it, as
     * in-process jobs share one process, so a job that silently
     * corrupts memory could make a later job in its worker crash. The
     * parent stays single-threaded in this mode (fork from a threaded
     * process is not async-signal-safe), scheduling workers instead
     * of threads.
     */
    bool isolate = false;
    /** Per-job wall-clock deadline, from the job's dispatch to its
     *  worker; the parent SIGKILLs a worker whose job is past due
     *  (JobKilled). 0 = none. */
    double wallDeadlineSeconds = 0.0;
    /** RLIMIT_AS cap per worker, in MiB, set once when it starts and
     *  covering every job it runs, and the table blocks its earlier
     *  jobs left parked for the next (up to kParkedTableBytesCap,
     *  sim/table_pool.hh); a job that runs out ends its worker
     *  (JobCrashed). 0 = none. */
    uint64_t memLimitMb = 0;
    /** RLIMIT_CPU budget per job, in seconds: before each job the
     *  worker sets its soft limit to its CPU time so far, rounded up,
     *  plus this budget, capped at the hard limit (which it leaves
     *  alone). The kernel SIGXCPUs a worker whose job overruns
     *  (JobKilled). 0 = none. */
    uint64_t cpuLimitSeconds = 0;
    /**
     * Cooperative cancellation: when non-null and set, no *new* job
     * is started (in-flight jobs finish and report). Cancelled jobs
     * keep their default-constructed result slot (attempts == 0) and
     * never reach an onResult callback — exactly the state a
     * campaign journal sees after a mid-run kill, which is how the
     * resume path is tested deterministically. Under isolation, idle
     * workers get their next jobs before onResult runs, so a flag set
     * from onResult lets those jobs finish too.
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
     * nest. Each thread recycles table memory between its indices
     * (see the file comment); none stays parked after the call.
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
     * kills the batch, and every other job still completes. Failed
     * jobs are summarized on stderr (rate-limited); use
     * failureSummary() for a report-ready digest.
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
     *  order. In-process it runs on whichever thread finished the
     *  job — synchronize externally if it touches shared state.
     *  Under isolation it runs on the calling thread, after idle
     *  workers have been given their next jobs. The campaign layer
     *  journals and stores each cell from here, so durability is
     *  per-cell, not per-batch. */
    using ResultHook = std::function<void(size_t, const BatchResult &)>;

    /** run() with a completion hook (see ResultHook). */
    std::vector<BatchResult> run(const std::vector<BatchJob> &batch,
                                 const BatchPolicy &policy,
                                 const ResultHook &onResult) const;

    /** One "<job name>: <error>" line per failed result ("" when
     *  everything succeeded). */
    static std::string
    failureSummary(const std::vector<BatchJob> &batch,
                   const std::vector<BatchResult> &results);

  private:
    unsigned jobs_;
};

namespace detail
{

/**
 * Run @p job once into @p result — the single code path both the
 * in-process batch and an isolated child execute, so the two modes
 * produce byte-identical BatchResults for clean jobs. A crash-armed
 * job is refused with ConfigInvalid here: an isolated child performs
 * its crash before it would get this far.
 */
void runJobOnce(const BatchJob &job, const BatchPolicy &policy,
                BatchResult &result);

} // namespace detail

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_BATCH_RUNNER_HH
