/**
 * @file
 * Error and status reporting helpers in the gem5 tradition.
 *
 * panic()  - an internal invariant was violated (simulator bug, or a
 *            caller bug such as an unbound label); aborts so a
 *            debugger/core dump can capture state. Unusable user
 *            input (bad configuration, unknown workload) is not a
 *            panic: library code throws sim::SimError
 *            (sim/sim_error.hh) and the caller decides what happens.
 * warn()   - something questionable happened but simulation can
 *            continue. Warnings are rate-limited per call site: the
 *            first kWarnVerbatimPerSite fire verbatim, then one
 *            suppression notice, then silence (counted) — so a fault
 *            campaign or a --jobs 16 batch cannot flood stderr. All
 *            counters are thread-safe. Warnings go to stderr only:
 *            no job result or campaign manifest records them, so a
 *            result holds exactly what its simulation computed.
 */

#ifndef SSMT_SIM_LOGGING_HH
#define SSMT_SIM_LOGGING_HH

#include <atomic>
#include <cstdint>
#include <string>

namespace ssmt
{

namespace detail
{

/** Warnings printed verbatim per site before suppression kicks in. */
constexpr uint64_t kWarnVerbatimPerSite = 5;

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
/** @p site_count is the calling SSMT_WARN's own static counter: how
 *  often that site fired, which drives its rate limit. */
void warnImpl(const char *file, int line, const std::string &msg,
              std::atomic<uint64_t> &site_count);

/** Total warnings swallowed by rate limiting, process-wide. */
uint64_t warnSuppressedTotal();
/** Total warnings actually printed, process-wide. */
uint64_t warnEmittedTotal();

} // namespace detail

} // namespace ssmt

#define SSMT_PANIC(msg) \
    ::ssmt::detail::panicImpl(__FILE__, __LINE__, (msg))
#define SSMT_WARN(msg) \
    do { \
        static std::atomic<uint64_t> ssmt_warn_count_{0}; \
        ::ssmt::detail::warnImpl(__FILE__, __LINE__, (msg), \
                                 ssmt_warn_count_); \
    } while (0)

/** Assert an internal invariant; always on (simulators must not lie). */
#define SSMT_ASSERT(cond, msg) \
    do { \
        if (!(cond)) \
            SSMT_PANIC(std::string("assertion failed: ") + #cond + \
                       " - " + (msg)); \
    } while (0)

#endif // SSMT_SIM_LOGGING_HH
