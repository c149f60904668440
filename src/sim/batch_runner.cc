#include "sim/batch_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <system_error>
#include <thread>

#include "sim/jobs.hh"
#include "sim/logging.hh"
#include "sim/proc_runner.hh"
#include "sim/sim_runner.hh"

namespace ssmt
{
namespace sim
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

const char *
crashKindName(CrashKind kind)
{
    switch (kind) {
      case CrashKind::None:  return "none";
      case CrashKind::Segv:  return "segv";
      case CrashKind::Abort: return "abort";
      case CrashKind::Oom:   return "oom";
      case CrashKind::Hang:  return "hang";
      case CrashKind::Exit:  return "exit";
    }
    return "?";
}

bool
parseCrashKind(const std::string &name, CrashKind *out)
{
    for (int i = 0; i <= static_cast<int>(CrashKind::Exit); i++) {
        CrashKind kind = static_cast<CrashKind>(i);
        if (name == crashKindName(kind)) {
            *out = kind;
            return true;
        }
    }
    return false;
}

BatchRunner::BatchRunner(unsigned jobs) : jobs_(resolveJobs(jobs))
{
}

void
BatchRunner::forEach(size_t n, const std::function<void(size_t)> &fn) const
{
    if (jobs_ <= 1 || n <= 1) {
        // Serial degenerate case: same thread, same order, and
        // exceptions propagate naturally.
        for (size_t i = 0; i < n; i++)
            fn(i);
        return;
    }
    // Fork-join ticket loop: every thread, the caller included,
    // claims the next unclaimed index until none are left.
    std::atomic<size_t> next{0};
    std::vector<std::exception_ptr> errors(n);
    auto drain = [&] {
        for (size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    const size_t helpers = std::min<size_t>(jobs_, n) - 1;
    // Reserved up front so only thread creation can throw below: a
    // reallocation failure would destroy started threads unjoined.
    std::vector<std::thread> threads;
    threads.reserve(helpers);
    try {
        for (size_t t = 0; t < helpers; t++)
            threads.emplace_back(drain);
    } catch (const std::system_error &) {
        // Out of threads: those already started finish the work.
    }
    drain();
    for (std::thread &thread : threads)
        thread.join();
    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
}

uint64_t
BatchRunner::retrySeed(uint64_t seed, unsigned attempt)
{
    if (attempt == 0)
        return seed;
    // splitmix64-style mix of (seed, attempt): deterministic,
    // attempt-distinct, and never 0 (FaultPlan seeds must be
    // non-zero).
    uint64_t x = seed + attempt * 0x9e3779b97f4a7c15ull;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x ? x : 1;
}

std::string
BatchRunner::failureSummary(const std::vector<BatchJob> &batch,
                            const std::vector<BatchResult> &results)
{
    std::string out;
    for (size_t i = 0; i < results.size(); i++) {
        const BatchResult &result = results[i];
        if (result.ok())
            continue;
        std::string name =
            i < batch.size() ? batch[i].name : std::to_string(i);
        out += name + ": [" + errorCodeName(result.errorCode) +
               "] after " + std::to_string(result.attempts) +
               " attempt" + (result.attempts == 1 ? "" : "s") + ": " +
               result.error + "\n";
    }
    return out;
}

namespace detail
{

bool
runAttempt(const BatchJob &job, const BatchPolicy &policy,
           unsigned attempt, std::string &checkpoint,
           BatchResult &result)
{
    MachineConfig config = job.config;
    bool resuming = policy.resumeOnWatchdog && !checkpoint.empty();
    // A retry from scratch re-mixes the fault seed, so a
    // fault-induced hang gets a different fault schedule.
    if (!resuming && config.faults.enabled()) {
        config.faults.seed =
            BatchRunner::retrySeed(job.config.faults.seed, attempt);
    }
    uint64_t budget = policy.cycleBudget;
    uint64_t snapshot_at = 0;
    if (policy.resumeOnWatchdog && policy.cycleBudget > 0) {
        // Each slice extends the absolute budget; checkpoint
        // exactly at the boundary so a tripped watchdog
        // leaves a resumable snapshot in the artifacts.
        budget = policy.cycleBudget * (attempt + 1);
        snapshot_at = std::min(config.maxCycles, budget);
    }
    result.attempts = attempt + 1;
    try {
        result.stats = runProgramChecked(
            job.program, config, job.name, budget, &result.faults,
            &result.artifacts, snapshot_at,
            resuming ? &checkpoint : nullptr);
        result.error.clear();
        result.errorCode = ErrorCode::None;
        return true;
    } catch (const SimError &err) {
        result.error = err.what();
        result.errorCode = err.code();
        if (policy.resumeOnWatchdog &&
            err.code() == ErrorCode::WatchdogExpired &&
            !result.artifacts.snapshot.empty()) {
            checkpoint = std::move(result.artifacts.snapshot);
        }
        return !err.recoverable();
    } catch (const std::exception &err) {
        result.error = err.what();
        result.errorCode = ErrorCode::Internal;
        return true;
    } catch (...) {
        result.error = "unknown exception";
        result.errorCode = ErrorCode::Internal;
        return true;
    }
}

} // namespace detail

std::vector<BatchResult>
BatchRunner::run(const std::vector<BatchJob> &batch,
                 const BatchPolicy &policy,
                 const ResultHook &onResult) const
{
    if (policy.isolate)
        return runBatchIsolated(batch, policy, jobs_, onResult);

    std::vector<BatchResult> results(batch.size());
    forEach(batch.size(), [&](size_t i) {
        if (policy.cancel &&
            policy.cancel->load(std::memory_order_relaxed)) {
            // Leave the default slot (attempts == 0): the job was
            // never started, and onResult must not see it.
            return;
        }
        BatchResult &result = results[i];
        auto start = std::chrono::steady_clock::now();
        if (batch[i].crash != CrashKind::None) {
            // Crash injection only makes sense where the blast
            // radius is one child process.
            result.attempts = 1;
            result.errorCode = ErrorCode::ConfigInvalid;
            result.error =
                std::string("[config-invalid] batch: crash "
                            "injection ('") +
                crashKindName(batch[i].crash) +
                "') requires isolate mode";
        } else {
            // Checkpoint harvested from a watchdog-expired attempt;
            // a non-empty value turns the next attempt into a
            // resume.
            std::string checkpoint;
            for (unsigned attempt = 0; attempt <= policy.maxRetries;
                 attempt++) {
                if (attempt > 0 && policy.backoffMs > 0) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(
                            policy.backoffMs
                            << std::min(attempt - 1, 16u)));
                }
                if (detail::runAttempt(batch[i], policy, attempt,
                                       checkpoint, result))
                    break;
            }
        }
        result.hostSeconds = secondsSince(start);
        if (!result.ok()) {
            SSMT_WARN("batch job '" + batch[i].name + "' failed: " +
                      result.error);
        }
        if (onResult)
            onResult(i, result);
    });
    return results;
}

} // namespace sim
} // namespace ssmt
