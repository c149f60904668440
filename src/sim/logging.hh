/**
 * @file
 * Error and status reporting helpers in the gem5 tradition.
 *
 * panic()  - an internal invariant was violated (simulator bug);
 *            aborts so a debugger/core dump can capture state.
 * fatal()  - the user asked for something unsatisfiable (bad
 *            configuration, bad workload parameters). By default this
 *            exits cleanly, preserving the historical CLI behavior;
 *            in fatal-throws mode (setFatalThrows(true), or the
 *            SSMT_FATAL_THROWS environment variable) it throws
 *            sim::FatalError instead, so library callers and tests
 *            can observe the failure without dying. CLIs that enable
 *            the mode catch at main() and keep exit(1).
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
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
/** @p site_count is the calling SSMT_WARN's own static counter: how
 *  often that site fired, which drives its rate limit. */
void warnImpl(const char *file, int line, const std::string &msg,
              std::atomic<uint64_t> &site_count);

/** Enable/disable throwing sim::FatalError from SSMT_FATAL. */
void setFatalThrows(bool enabled);
/** Current fatal-throws mode (env SSMT_FATAL_THROWS seeds it). */
bool fatalThrows();

/** Total warnings swallowed by rate limiting, process-wide. */
uint64_t warnSuppressedTotal();
/** Total warnings actually printed, process-wide. */
uint64_t warnEmittedTotal();

} // namespace detail

} // namespace ssmt

#define SSMT_PANIC(msg) \
    ::ssmt::detail::panicImpl(__FILE__, __LINE__, (msg))
#define SSMT_FATAL(msg) \
    ::ssmt::detail::fatalImpl(__FILE__, __LINE__, (msg))
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
