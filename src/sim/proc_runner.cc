#include "sim/proc_runner.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

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

/** One live child: its pid, result pipe and accumulated bytes. */
struct ChildSlot
{
    pid_t pid = -1;
    int fd = -1;                ///< parent's nonblocking read end
    size_t job = 0;
    std::string buffer;
    Clock::time_point startedAt{};  ///< for hostSeconds
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

/** The forked child's whole life: one run, one document, _exit.
 *  Never returns; never runs static destructors or flushes inherited
 *  stdio (that would duplicate the parent's buffered output). */
[[noreturn]] void
childMain(const BatchJob &job, const BatchPolicy &policy, int write_fd,
          const std::vector<ChildSlot> &siblings)
{
    // Close the parent-side ends of every sibling's pipe: a sibling
    // holding our write end open would delay the parent's EOF on a
    // crashed sibling, and vice versa.
    for (const ChildSlot &sibling : siblings)
        ::close(sibling.fd);

    applyChildLimits(policy);
    if (job.crash != CrashKind::None)
        crashInChild(job.crash);

    BatchResult result;
    detail::runJobOnce(job, policy, result);

    std::string doc = encodeJobResult(result, "", true);
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
    std::vector<ChildSlot> slots;
    slots.reserve(max_children);
    size_t next = 0;        // every job below `next` has been forked
    bool cancelled = false;

    auto completeJob = [&](size_t i, Clock::time_point started_at) {
        results[i].hostSeconds = secondsSince(started_at);
        if (!results[i].ok()) {
            SSMT_WARN("batch job '" + batch[i].name +
                      "' failed: " + results[i].error);
        }
        if (onResult)
            onResult(i, results[i]);
    };

    // No result came back (the child could not start, died or was
    // killed): seal the job's error slot.
    auto failJob = [&](size_t i, Clock::time_point started_at,
                       ErrorCode code, const std::string &msg) {
        results[i].attempts = 1;
        results[i].errorCode = code;
        results[i].error = msg;
        completeJob(i, started_at);
    };

    auto spawn = [&](size_t i) {
        int fds[2];
        if (::pipe(fds) != 0) {
            failJob(i, Clock::now(), ErrorCode::Internal,
                    "[internal] isolate: pipe creation failed");
            return;
        }
        pid_t pid = ::fork();
        if (pid == 0) {
            ::close(fds[0]);
            childMain(batch[i], policy, fds[1], slots);
        }
        ::close(fds[1]);
        // hostSeconds runs from fork()'s return in the parent.
        const Clock::time_point started_at = Clock::now();
        if (pid < 0) {
            ::close(fds[0]);
            failJob(i, started_at, ErrorCode::Internal,
                    "[internal] isolate: fork failed");
            return;
        }
        ::fcntl(fds[0], F_SETFL,
                ::fcntl(fds[0], F_GETFL, 0) | O_NONBLOCK);
        ChildSlot slot;
        slot.pid = pid;
        slot.fd = fds[0];
        slot.job = i;
        slot.startedAt = started_at;
        if (policy.wallDeadlineSeconds > 0.0) {
            slot.hasDeadline = true;
            slot.deadline =
                Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        policy.wallDeadlineSeconds));
        }
        slots.push_back(std::move(slot));
    };

    // The child's pipe hit EOF: reap it and classify the outcome.
    auto reap = [&](ChildSlot &slot) {
        ::close(slot.fd);
        int status = 0;
        while (::waitpid(slot.pid, &status, 0) < 0 && errno == EINTR) {
        }
        const size_t i = slot.job;
        auto fail = [&](ErrorCode code, const std::string &msg) {
            failJob(i, slot.startedAt, code, msg);
        };

        if (slot.killedOnDeadline) {
            fail(ErrorCode::JobKilled,
                 "[job-killed] isolate: child exceeded the wall-clock "
                 "deadline");
            return;
        }
        if (WIFSIGNALED(status) && WTERMSIG(status) == SIGXCPU) {
            fail(ErrorCode::JobKilled,
                 "[job-killed] isolate: child exceeded the cpu limit "
                 "(SIGXCPU)");
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
                completeJob(i, slot.startedAt);
            } catch (const SimError &err) {
                fail(ErrorCode::JobCrashed,
                     "[job-crashed] isolate: child returned an "
                     "unparsable result: " +
                         err.context());
            }
            return;
        }
        if (WIFEXITED(status)) {
            fail(ErrorCode::JobCrashed,
                 "[job-crashed] isolate: child exited with status " +
                     std::to_string(WEXITSTATUS(status)) +
                     " without a result");
        } else {
            fail(ErrorCode::JobCrashed,
                 "[job-crashed] isolate: child terminated by signal " +
                     std::to_string(WTERMSIG(status)));
        }
    };

    while (true) {
        if (!cancelled && policy.cancel &&
            policy.cancel->load(std::memory_order_relaxed))
            cancelled = true;

        // Launch phase: fill free slots in index order. A job whose
        // fork failed is already sealed and frees its slot at once.
        while (!cancelled && next < n && slots.size() < max_children)
            spawn(next++);

        // Every job forked and reaped, or cancelled and drained.
        if (slots.empty())
            break;

        // Poll timeout: the nearest child deadline, bounded so
        // cancellation stays responsive.
        auto now = Clock::now();
        int64_t timeout_ms = 100;
        for (const ChildSlot &slot : slots) {
            if (slot.hasDeadline && !slot.killedOnDeadline) {
                int64_t ms = std::chrono::duration_cast<
                                 std::chrono::milliseconds>(
                                 slot.deadline - now)
                                 .count();
                timeout_ms = std::clamp<int64_t>(ms, 0, timeout_ms);
            }
        }

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
