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
#include "sim/table_pool.hh"

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
        RecycleTables recycle;
        for (size_t i = 0; i < n; i++)
            fn(i);
        return;
    }
    // Fork-join ticket loop: every thread, the caller included,
    // claims the next unclaimed index until none are left.
    std::atomic<size_t> next{0};
    std::vector<std::exception_ptr> errors(n);
    auto drain = [&] {
        RecycleTables recycle;
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
        out += name + ": " + result.error + "\n";
    }
    return out;
}

namespace detail
{

void
runJobOnce(const BatchJob &job, const BatchPolicy &policy,
           BatchResult &result)
{
    result.attempts = 1;
    if (job.crash != CrashKind::None) {
        // Crash injection only makes sense where the blast radius is
        // one child process.
        result.errorCode = ErrorCode::ConfigInvalid;
        result.error =
            std::string("[config-invalid] batch: crash injection ('") +
            crashKindName(job.crash) + "') requires isolate mode";
        return;
    }
    try {
        result.stats =
            runProgramChecked(job.program, job.config, job.name,
                              policy.cycleBudget, &result.faults);
    } catch (const SimError &err) {
        result.error = err.what();
        result.errorCode = err.code();
    } catch (const std::exception &err) {
        result.error = std::string("[internal] batch: ") + err.what();
        result.errorCode = ErrorCode::Internal;
    } catch (...) {
        result.error = "[internal] batch: unknown exception";
        result.errorCode = ErrorCode::Internal;
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
        detail::runJobOnce(batch[i], policy, result);
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
