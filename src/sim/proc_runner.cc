#include "sim/proc_runner.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
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

/** One long-lived child: its pid, the parent's end of its channel
 *  and the job it is running, if any. */
struct Worker
{
    pid_t pid = -1;
    int fd = -1;            ///< parent's nonblocking end; -1 once closed
    bool busy = false;      ///< a job is in flight
    size_t job = 0;
    std::string buffer;     ///< the in-flight job's reply so far
    Clock::time_point dispatchedAt{};   ///< for hostSeconds
    Clock::time_point deadline{};
    bool killedOnDeadline = false;
};

int
reap(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return status;
}

/** Owns a batch's workers. On every path out of runBatchIsolated it
 *  closes each channel, SIGKILLs the workers still running a job and
 *  reaps them all, so no worker outlives the call. An idle worker
 *  exits on its own at EOF. */
struct WorkerPool
{
    std::vector<Worker> workers;

    WorkerPool() = default;
    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    ~WorkerPool()
    {
        for (Worker &w : workers) {
            if (w.busy)
                ::kill(w.pid, SIGKILL);
            close(w);
        }
        for (const Worker &w : workers)
            reap(w.pid);
    }

    static void
    close(Worker &w)
    {
        if (w.fd >= 0)
            ::close(w.fd);
        w.fd = -1;
    }

    /** Close and reap the dead worker at @p k and drop it.
     *  @return its wait status. */
    int
    bury(size_t k)
    {
        close(workers[k]);
        int status = reap(workers[k].pid);
        workers.erase(workers.begin() + static_cast<ptrdiff_t>(k));
        return status;
    }

    size_t
    open() const
    {
        return static_cast<size_t>(
            std::count_if(workers.begin(), workers.end(),
                          [](const Worker &w) { return w.fd >= 0; }));
    }
};

/** Read exactly @p size bytes. @return @p size, fewer at EOF, or -1
 *  on an error. */
ssize_t
readFull(int fd, void *data, size_t size)
{
    size_t got = 0;
    while (got < size) {
        ssize_t n = ::read(fd, static_cast<char *>(data) + got,
                           size - got);
        if (n == 0)
            break;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        got += static_cast<size_t>(n);
    }
    return static_cast<ssize_t>(got);
}

bool
writeFull(int fd, const void *data, size_t size)
{
    const char *p = static_cast<const char *>(data);
    while (size > 0) {
        ssize_t n = ::write(fd, p, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        size -= static_cast<size_t>(n);
    }
    return true;
}

/** RLIMIT_CPU for the next job: the soft limit becomes the worker's
 *  CPU time so far, rounded up so the job gets its whole budget, plus
 *  @p seconds, capped at the hard limit. */
void
armCpuLimit(uint64_t seconds)
{
    if (seconds == 0)
        return;
    struct rusage usage;
    ::getrusage(RUSAGE_SELF, &usage);
    const uint64_t micros =
        static_cast<uint64_t>(usage.ru_utime.tv_sec +
                              usage.ru_stime.tv_sec) *
            1000000 +
        static_cast<uint64_t>(usage.ru_utime.tv_usec +
                              usage.ru_stime.tv_usec);
    struct rlimit rl;
    ::getrlimit(RLIMIT_CPU, &rl);
    rl.rlim_cur = static_cast<rlim_t>((micros + 999999) / 1000000 +
                                      seconds);
    if (rl.rlim_max != RLIM_INFINITY)
        rl.rlim_cur = std::min(rl.rlim_cur, rl.rlim_max);
    ::setrlimit(RLIMIT_CPU, &rl);
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
        // bad_alloc ends the worker with kWorkerUncaught.
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
    ::_exit(kWorkerCrashReturned);
}

/** A worker's whole life: read a job index, run the job, reply, and
 *  again until EOF. Never returns and never lets an exception out:
 *  unwinding would run the caller's frames (a test harness, a CLI's
 *  main) in the child, and returning would run static destructors
 *  and flush inherited stdio, duplicating the parent's output. */
[[noreturn]] void
workerMain(const std::vector<BatchJob> &batch, const BatchPolicy &policy,
           int fd, const std::vector<Worker> &siblings)
{
    try {
        // Close the parent's ends of every sibling's channel: a
        // sibling's end held open here would hide that sibling's
        // death from the parent.
        for (const Worker &sibling : siblings)
            if (sibling.fd >= 0)
                ::close(sibling.fd);
        if (policy.memLimitMb > 0) {
            struct rlimit rl;
            rl.rlim_cur = rl.rlim_max =
                static_cast<rlim_t>(policy.memLimitMb) << 20;
            ::setrlimit(RLIMIT_AS, &rl);
        }
        for (;;) {
            uint64_t index = 0;
            ssize_t got = readFull(fd, &index, sizeof(index));
            if (got == 0)
                ::_exit(0);     // the parent has no more jobs
            if (got != static_cast<ssize_t>(sizeof(index)) ||
                index >= batch.size())
                ::_exit(kWorkerChannelFailed);
            const BatchJob &job = batch[index];
            armCpuLimit(policy.cpuLimitSeconds);
            if (job.crash != CrashKind::None)
                crashInChild(job.crash);

            BatchResult result;
            detail::runJobOnce(job, policy, result);
            const std::string doc = encodeJobResult(result, "", true);
            const uint64_t size = doc.size();
            if (!writeFull(fd, &size, sizeof(size)) ||
                !writeFull(fd, doc.data(), doc.size()))
                ::_exit(kWorkerChannelFailed);
        }
    } catch (...) {
        ::_exit(kWorkerUncaught);
    }
}

/** Fork a worker into @p pool. @return nullptr, or why none could be
 *  started. */
const char *
startWorker(WorkerPool &pool, const std::vector<BatchJob> &batch,
            const BatchPolicy &policy)
{
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        return "[internal] isolate: socketpair failed";
    pid_t pid = ::fork();
    if (pid == 0) {
        ::close(fds[0]);
        workerMain(batch, policy, fds[1], pool.workers);
    }
    ::close(fds[1]);
    if (pid < 0) {
        ::close(fds[0]);
        return "[internal] isolate: fork failed";
    }
    ::fcntl(fds[0], F_SETFL, ::fcntl(fds[0], F_GETFL, 0) | O_NONBLOCK);
    Worker w;
    w.pid = pid;
    w.fd = fds[0];
    pool.workers.push_back(std::move(w));
    return nullptr;
}

/** Why a worker died with its job in flight, as that job's error.
 *  @p killed_on_deadline: the parent SIGKILLed it past the deadline. */
void
classifyDeath(bool killed_on_deadline, int status, BatchResult &result)
{
    auto fail = [&](ErrorCode code, std::string msg) {
        result.errorCode = code;
        result.error = std::move(msg);
    };
    if (killed_on_deadline) {
        fail(ErrorCode::JobKilled,
             "[job-killed] isolate: child exceeded the wall-clock "
             "deadline");
    } else if (WIFSIGNALED(status) && WTERMSIG(status) == SIGXCPU) {
        fail(ErrorCode::JobKilled,
             "[job-killed] isolate: child exceeded the cpu limit "
             "(SIGXCPU)");
    } else if (WIFEXITED(status)) {
        fail(ErrorCode::JobCrashed,
             "[job-crashed] isolate: child exited with status " +
                 std::to_string(WEXITSTATUS(status)) +
                 " without a result");
    } else {
        fail(ErrorCode::JobCrashed,
             "[job-crashed] isolate: child terminated by signal " +
                 std::to_string(WTERMSIG(status)));
    }
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

    const size_t max_workers =
        std::max<size_t>(1, std::min<size_t>(workers, n));
    const bool deadlines = policy.wallDeadlineSeconds > 0.0;
    WorkerPool pool;
    size_t next = 0;        // every job below `next` was dispatched
    bool cancelled = false;
    std::vector<size_t> finished;   // sealed, hooks not yet run

    auto seal = [&](size_t i, Clock::time_point since) {
        results[i].attempts = 1;
        results[i].hostSeconds = secondsSince(since);
        finished.push_back(i);
    };

    // Give every idle worker its next job, forking workers up to the
    // cap while jobs remain. Once none remain, idle workers' channels
    // close: each exits at EOF and the pool reaps it.
    auto refill = [&] {
        while (next < n) {
            if (policy.cancel &&
                policy.cancel->load(std::memory_order_relaxed))
                cancelled = true;
            if (cancelled)
                break;
            auto idle = std::find_if(
                pool.workers.begin(), pool.workers.end(),
                [](const Worker &w) { return w.fd >= 0 && !w.busy; });
            if (idle == pool.workers.end()) {
                if (pool.open() >= max_workers)
                    break;
                if (const char *err = startWorker(pool, batch, policy)) {
                    // The running workers take the rest; with none
                    // running, the job cannot start.
                    if (pool.open() > 0)
                        break;
                    results[next].errorCode = ErrorCode::Internal;
                    results[next].error = err;
                    seal(next++, Clock::now());
                    continue;
                }
                idle = pool.workers.end() - 1;
            }
            const uint64_t index = next;
            if (::send(idle->fd, &index, sizeof(index), MSG_NOSIGNAL) !=
                static_cast<ssize_t>(sizeof(index))) {
                // The worker died between jobs. This job never
                // started, so another worker takes it.
                pool.bury(static_cast<size_t>(idle - pool.workers.begin()));
                continue;
            }
            Worker &w = *idle;
            w.busy = true;
            w.job = next++;
            w.buffer.clear();
            w.dispatchedAt = Clock::now();
            w.killedOnDeadline = false;
            if (deadlines)
                w.deadline = w.dispatchedAt +
                             std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     policy.wallDeadlineSeconds));
        }
        if (next == n || cancelled)
            for (Worker &w : pool.workers)
                if (!w.busy)
                    WorkerPool::close(w);
    };

    // The reply of @p w's job is complete: decode it and free @p w.
    auto takeReply = [&](Worker &w) {
        uint64_t size = 0;
        if (w.buffer.size() < sizeof(size))
            return;
        std::memcpy(&size, w.buffer.data(), sizeof(size));
        if (w.buffer.size() - sizeof(size) < size)
            return;
        const size_t i = w.job;
        w.busy = false;
        w.buffer.erase(0, sizeof(size));
        try {
            BatchResult decoded;
            std::string checkpoint;
            bool final_attempt = false;
            decodeJobResult(w.buffer, batch[i].config, &decoded,
                            &checkpoint, &final_attempt);
            results[i] = std::move(decoded);
        } catch (const SimError &err) {
            results[i].errorCode = ErrorCode::JobCrashed;
            results[i].error =
                "[job-crashed] isolate: child returned an unparsable "
                "result: " +
                err.context();
            // A worker that garbles its reply gets no further jobs.
            WorkerPool::close(w);
        }
        seal(i, w.dispatchedAt);
    };

    for (;;) {
        refill();
        for (size_t i : finished) {
            if (!results[i].ok()) {
                SSMT_WARN("batch job '" + batch[i].name +
                          "' failed: " + results[i].error);
            }
            if (onResult)
                onResult(i, results[i]);
        }
        finished.clear();

        // Every open channel belongs to a busy worker now.
        if (pool.open() == 0)
            break;

        // Sleep until a worker replies or dies, or the nearest
        // deadline falls due.
        auto now = Clock::now();
        int64_t timeout_ms = -1;
        std::vector<pollfd> fds;
        fds.reserve(pool.workers.size());
        for (const Worker &w : pool.workers) {
            fds.push_back({w.fd, POLLIN, 0});
            if (deadlines && w.busy && !w.killedOnDeadline) {
                int64_t ms = std::max<int64_t>(
                    0, std::chrono::duration_cast<
                           std::chrono::milliseconds>(w.deadline - now)
                           .count());
                timeout_ms = timeout_ms < 0 ? ms
                                            : std::min(timeout_ms, ms);
            }
        }
        int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                           static_cast<int>(timeout_ms));
        if (ready < 0 && errno != EINTR)
            SSMT_PANIC("isolate scheduler poll() failed: " +
                       std::string(std::strerror(errno)));

        // Drain readable channels. A complete reply frees its worker;
        // EOF (or a broken channel) means the worker is gone, and the
        // job it was running, if any, gets the cause of death.
        for (size_t k = 0, f = 0; k < pool.workers.size(); f++) {
            Worker &w = pool.workers[k];
            if (ready <= 0 || w.fd < 0 ||
                !(fds[f].revents & (POLLIN | POLLHUP | POLLERR))) {
                k++;
                continue;
            }
            bool gone = false;
            char buf[65536];
            for (;;) {
                ssize_t got = ::read(w.fd, buf, sizeof(buf));
                if (got > 0) {
                    w.buffer.append(buf, static_cast<size_t>(got));
                    continue;
                }
                if (got < 0 && errno == EINTR)
                    continue;
                gone = got == 0 || errno != EAGAIN;
                break;
            }
            if (w.busy)
                takeReply(w);
            if (!gone || w.fd < 0) {
                k++;
                continue;
            }
            const bool busy = w.busy, killed = w.killedOnDeadline;
            const size_t i = w.job;
            const Clock::time_point since = w.dispatchedAt;
            const int status = pool.bury(k);
            if (busy) {
                classifyDeath(killed, status, results[i]);
                seal(i, since);
            }
        }

        // Deadline enforcement: SIGKILL past-due workers. The kill
        // closes their channel, so the EOF path above buries them.
        now = Clock::now();
        for (Worker &w : pool.workers) {
            if (deadlines && w.busy && !w.killedOnDeadline &&
                now >= w.deadline) {
                ::kill(w.pid, SIGKILL);
                w.killedOnDeadline = true;
            }
        }
    }

    return results;
}

} // namespace sim
} // namespace ssmt
