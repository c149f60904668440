#include "sim/proc_runner.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sim/job_codec.hh"
#include "sim/logging.hh"

namespace ssmt
{
namespace sim
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/** Retry delay for moving to @p attempt (>= 1): exponential backoff
 *  with a shift clamp so a pathological maxRetries cannot overflow. */
unsigned
backoffDelayMs(const BatchPolicy &policy, unsigned attempt)
{
    if (policy.backoffMs == 0 || attempt == 0)
        return 0;
    return policy.backoffMs << std::min(attempt - 1, 16u);
}

/**
 * Scheduling state of one job in the parent. Attempts run strictly
 * one after another: a retry (or checkpoint→resume) is launched only
 * once its predecessor's child has been reaped, so the chain needs
 * no more than `attempt` plus a `finished` flag.
 */
struct JobState
{
    bool running = false;           ///< a child is live for `attempt`
    bool finished = false;          ///< final attempt sealed
    unsigned attempt = 0;           ///< next attempt to launch
    std::string checkpoint;         ///< watchdog-resume snapshot
    Clock::time_point eligibleAt{}; ///< backoff gate (pending only)
    Clock::time_point startedAt{};  ///< first spawn, for hostSeconds
    bool started = false;
};

/** One live child: its pid, result pipe and accumulated bytes. */
struct ChildSlot
{
    pid_t pid = -1;
    int fd = -1;                ///< parent's nonblocking read end
    size_t job = 0;
    std::string buffer;
    Clock::time_point deadline{};
    bool hasDeadline = false;
    bool killedOnDeadline = false;
};

void
applyChildLimits(const BatchPolicy &policy)
{
    if (policy.memLimitMb > 0) {
        struct rlimit rl;
        rl.rlim_cur = rl.rlim_max =
            static_cast<rlim_t>(policy.memLimitMb) << 20;
        ::setrlimit(RLIMIT_AS, &rl);
    }
    if (policy.cpuLimitSeconds > 0) {
        struct rlimit rl;
        rl.rlim_cur = rl.rlim_max =
            static_cast<rlim_t>(policy.cpuLimitSeconds);
        ::setrlimit(RLIMIT_CPU, &rl);
    }
}

/** Perform the requested misbehavior instead of simulating. */
[[noreturn]] void
crashInChild(CrashKind kind)
{
    switch (kind) {
      case CrashKind::Segv: {
        volatile int *null = nullptr;
        *null = 1;
        break;
      }
      case CrashKind::Abort:
        std::abort();
      case CrashKind::Oom: {
        // Touch every page so RLIMIT_AS genuinely runs out; the
        // uncaught bad_alloc then terminates via abort (SIGABRT).
        std::vector<std::unique_ptr<char[]>> hog;
        for (;;) {
            constexpr size_t chunk = 16u << 20;
            hog.emplace_back(new char[chunk]);
            std::memset(hog.back().get(), 0xa5, chunk);
        }
      }
      case CrashKind::Hang:
        for (;;)
            ::pause();
      case CrashKind::Exit:
        ::_exit(3);
      case CrashKind::None:
        break;
    }
    ::_exit(98);
}

/** The forked child's whole life: one attempt, one document, _exit.
 *  Never returns; never runs static destructors or flushes inherited
 *  stdio (that would duplicate the parent's buffered output). */
[[noreturn]] void
childMain(const BatchJob &job, const BatchPolicy &policy,
          unsigned attempt, const std::string &checkpoint_in,
          int write_fd, const std::vector<ChildSlot> &siblings)
{
    // Close the parent-side ends of every sibling's pipe: a sibling
    // holding our write end open would delay the parent's EOF on a
    // crashed sibling, and vice versa.
    for (const ChildSlot &sibling : siblings)
        ::close(sibling.fd);

    applyChildLimits(policy);
    if (job.crash != CrashKind::None)
        crashInChild(job.crash);

    // fork() copied the parent's warn counters; the delta against
    // this baseline is the warnings *this* attempt fired.
    auto warn_base = ssmt::detail::warnSiteCounts();

    BatchResult result;
    std::string checkpoint = checkpoint_in;
    bool final_attempt =
        detail::runAttempt(job, policy, attempt, checkpoint, result);
    result.warnings = ssmt::detail::warnSiteDelta(
        warn_base, ssmt::detail::warnSiteCounts());

    std::string doc =
        encodeJobResult(result, checkpoint, final_attempt);
    const char *data = doc.data();
    size_t left = doc.size();
    while (left > 0) {
        ssize_t wrote = ::write(write_fd, data, left);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            ::_exit(97);
        }
        data += wrote;
        left -= static_cast<size_t>(wrote);
    }
    ::close(write_fd);
    ::_exit(0);
}

} // namespace

std::vector<BatchResult>
runBatchIsolated(const std::vector<BatchJob> &batch,
                 const BatchPolicy &policy, unsigned workers,
                 const BatchRunner::ResultHook &onResult)
{
    const size_t n = batch.size();
    std::vector<BatchResult> results(n);
    if (n == 0)
        return results;

    const size_t max_children =
        std::max<size_t>(1, std::min<size_t>(workers, n));
    std::vector<JobState> jobs(n);
    std::vector<ChildSlot> slots;
    slots.reserve(max_children);
    size_t done = 0;
    bool cancelled = false;

    auto pending = [&](size_t i) {
        return !jobs[i].running && !jobs[i].finished;
    };

    // Queue the next attempt behind its wall-clock backoff gate. The
    // previous attempt's child is already reaped, so the retry is
    // ready to launch the moment the gate opens.
    auto chainNextAttempt = [&](size_t i) {
        SSMT_ASSERT(pending(i), "isolate: retry chained for a job "
                                "that is running or finished");
        jobs[i].attempt++;
        jobs[i].eligibleAt =
            Clock::now() +
            std::chrono::milliseconds(
                backoffDelayMs(policy, jobs[i].attempt));
    };

    auto completeJob = [&](size_t i) {
        jobs[i].finished = true;
        done++;
        results[i].hostSeconds = secondsSince(jobs[i].startedAt);
        if (!results[i].ok()) {
            SSMT_WARN("batch job '" + batch[i].name +
                      "' failed: " + results[i].error);
        }
        if (onResult)
            onResult(i, results[i]);
    };

    // A retryable attempt failure: schedule the next attempt behind
    // its backoff gate, or seal the error slot when the budget is
    // spent.
    auto failAttempt = [&](size_t i, ErrorCode code,
                           const std::string &msg) {
        results[i].errorCode = code;
        results[i].error = msg;
        results[i].attempts = jobs[i].attempt + 1;
        if (jobs[i].attempt < policy.maxRetries) {
            chainNextAttempt(i);
        } else {
            completeJob(i);
        }
    };

    auto spawn = [&](size_t i) {
        int fds[2];
        if (::pipe(fds) != 0) {
            results[i].attempts = jobs[i].attempt + 1;
            results[i].errorCode = ErrorCode::Internal;
            results[i].error =
                "[internal] isolate: pipe creation failed";
            if (!jobs[i].started) {
                jobs[i].started = true;
                jobs[i].startedAt = Clock::now();
            }
            completeJob(i);
            return;
        }
        pid_t pid = ::fork();
        if (pid == 0) {
            ::close(fds[0]);
            childMain(batch[i], policy, jobs[i].attempt,
                      jobs[i].checkpoint, fds[1], slots);
        }
        ::close(fds[1]);
        if (!jobs[i].started) {
            jobs[i].started = true;
            jobs[i].startedAt = Clock::now();
        }
        if (pid < 0) {
            ::close(fds[0]);
            results[i].attempts = jobs[i].attempt + 1;
            results[i].errorCode = ErrorCode::Internal;
            results[i].error = "[internal] isolate: fork failed";
            completeJob(i);
            return;
        }
        ::fcntl(fds[0], F_SETFL,
                ::fcntl(fds[0], F_GETFL, 0) | O_NONBLOCK);
        ChildSlot slot;
        slot.pid = pid;
        slot.fd = fds[0];
        slot.job = i;
        if (policy.wallDeadlineSeconds > 0.0) {
            slot.hasDeadline = true;
            slot.deadline =
                Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        policy.wallDeadlineSeconds));
        }
        jobs[i].running = true;
        slots.push_back(std::move(slot));
    };

    // The child's pipe hit EOF: reap it and classify the outcome.
    auto reap = [&](ChildSlot &slot) {
        ::close(slot.fd);
        int status = 0;
        while (::waitpid(slot.pid, &status, 0) < 0 && errno == EINTR) {
        }
        const size_t i = slot.job;
        jobs[i].running = false;

        if (slot.killedOnDeadline) {
            failAttempt(i, ErrorCode::JobKilled,
                        "[job-killed] isolate: child exceeded the "
                        "wall-clock deadline");
            return;
        }
        if (WIFSIGNALED(status) && WTERMSIG(status) == SIGXCPU) {
            failAttempt(i, ErrorCode::JobKilled,
                        "[job-killed] isolate: child exceeded the "
                        "cpu limit (SIGXCPU)");
            return;
        }
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
            try {
                BatchResult decoded;
                std::string checkpoint;
                bool final_attempt = false;
                decodeJobResult(slot.buffer, batch[i].config,
                                &decoded, &checkpoint,
                                &final_attempt);
                results[i] = std::move(decoded);
                jobs[i].checkpoint = std::move(checkpoint);
                if (final_attempt ||
                    jobs[i].attempt >= policy.maxRetries) {
                    completeJob(i);
                } else {
                    chainNextAttempt(i);
                }
            } catch (const SimError &err) {
                failAttempt(i, ErrorCode::JobCrashed,
                            "[job-crashed] isolate: child returned "
                            "an unparsable result: " +
                                err.context());
            }
            return;
        }
        if (WIFEXITED(status)) {
            failAttempt(i, ErrorCode::JobCrashed,
                        "[job-crashed] isolate: child exited with "
                        "status " +
                            std::to_string(WEXITSTATUS(status)) +
                            " without a result");
        } else {
            failAttempt(i, ErrorCode::JobCrashed,
                        "[job-crashed] isolate: child terminated by "
                        "signal " +
                            std::to_string(WTERMSIG(status)));
        }
    };

    while (true) {
        if (!cancelled && policy.cancel &&
            policy.cancel->load(std::memory_order_relaxed))
            cancelled = true;

        // Launch phase: fill free slots with the lowest-index
        // pending jobs whose backoff gate has opened.
        if (!cancelled) {
            auto now = Clock::now();
            for (size_t i = 0;
                 i < n && slots.size() < max_children; i++) {
                if (pending(i) && jobs[i].eligibleAt <= now)
                    spawn(i);
            }
        }

        if (slots.empty()) {
            if (done == n || cancelled)
                break;
            // Everything left is pending behind a backoff gate:
            // sleep until the earliest gate opens.
            Clock::time_point wake{};
            bool have_wake = false;
            for (size_t i = 0; i < n; i++) {
                if (pending(i) &&
                    (!have_wake || jobs[i].eligibleAt < wake)) {
                    wake = jobs[i].eligibleAt;
                    have_wake = true;
                }
            }
            if (have_wake)
                std::this_thread::sleep_until(wake);
            continue;
        }

        // Poll timeout: the nearest child deadline or backoff gate,
        // bounded so cancellation stays responsive.
        auto now = Clock::now();
        int64_t timeout_ms = 100;
        auto consider = [&](Clock::time_point when) {
            int64_t ms =
                std::chrono::duration_cast<
                    std::chrono::milliseconds>(when - now)
                    .count();
            timeout_ms = std::clamp<int64_t>(ms, 0, timeout_ms);
        };
        for (const ChildSlot &slot : slots)
            if (slot.hasDeadline && !slot.killedOnDeadline)
                consider(slot.deadline);
        for (size_t i = 0; i < n; i++)
            if (pending(i))
                consider(jobs[i].eligibleAt);

        std::vector<pollfd> fds(slots.size());
        for (size_t s = 0; s < slots.size(); s++)
            fds[s] = {slots[s].fd, POLLIN, 0};
        int ready = ::poll(fds.data(),
                           static_cast<nfds_t>(fds.size()),
                           static_cast<int>(timeout_ms));
        if (ready < 0 && errno != EINTR)
            SSMT_PANIC("isolate scheduler poll() failed: " +
                       std::string(std::strerror(errno)));

        // Drain readable pipes; an EOF retires the slot.
        for (size_t s = 0; s < slots.size();) {
            bool eof = false;
            if (ready > 0 &&
                (fds[s].revents & (POLLIN | POLLHUP | POLLERR))) {
                char buf[65536];
                for (;;) {
                    ssize_t got =
                        ::read(slots[s].fd, buf, sizeof(buf));
                    if (got > 0) {
                        slots[s].buffer.append(
                            buf, static_cast<size_t>(got));
                        continue;
                    }
                    if (got == 0) {
                        eof = true;
                        break;
                    }
                    if (errno == EINTR)
                        continue;
                    break;      // EAGAIN: drained for now
                }
            }
            if (eof) {
                reap(slots[s]);
                fds.erase(fds.begin() +
                          static_cast<ptrdiff_t>(s));
                slots.erase(slots.begin() +
                            static_cast<ptrdiff_t>(s));
            } else {
                s++;
            }
        }

        // Deadline enforcement: SIGKILL past-due children. The kill
        // closes their pipe, so the normal EOF path reaps them on
        // the next iteration.
        now = Clock::now();
        for (ChildSlot &slot : slots) {
            if (slot.hasDeadline && !slot.killedOnDeadline &&
                now >= slot.deadline) {
                ::kill(slot.pid, SIGKILL);
                slot.killedOnDeadline = true;
            }
        }
    }

    return results;
}

} // namespace sim
} // namespace ssmt
