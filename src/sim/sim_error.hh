/**
 * @file
 * Structured simulator errors.
 *
 * Library code must not decide process fate: a bad configuration, an
 * unknown workload, an unparsable artifact or a tripped watchdog is a
 * *job*-level failure that a batch driver can record or report — not
 * a reason to exit(1) under a caller's feet. SimError carries a
 * machine-checkable code, the site that raised it and a human
 * context string. CLIs catch it at main() and keep the traditional
 * exit(1); sim::BatchRunner catches it per job and turns it into a
 * BatchResult::error instead of dying.
 *
 * The companion SSMT_FATAL path (sim/logging.hh) throws FatalError —
 * the user-level leaf of this taxonomy — when fatal-throws mode is
 * enabled, making historical fatal() call sites unit-testable.
 */

#ifndef SSMT_SIM_SIM_ERROR_HH
#define SSMT_SIM_SIM_ERROR_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace ssmt
{
namespace sim
{

/** What went wrong, coarsely: drives reporting and exit status. */
enum class ErrorCode : uint8_t
{
    None,               ///< no error (BatchResult default)
    ConfigInvalid,      ///< MachineConfig::validate() rejected the run
    UnknownWorkload,    ///< workload name not in the registry
    IoError,            ///< file could not be read or written
    ParseError,         ///< artifact (JSON/allowlist) failed to parse
    InvariantViolation, ///< StatsChecker / structural check tripped
    WatchdogExpired,    ///< per-job cycle budget exhausted
    FaultPlanInvalid,   ///< malformed fault-injection plan
    Fatal,              ///< SSMT_FATAL raised in fatal-throws mode
    Internal,           ///< anything else (wrapped foreign exception)
    /** An isolated worker process died with the job in flight
     *  (signal or exit) or returned an unparsable result. Only ever
     *  produced by the subprocess path (BatchPolicy::isolate). */
    JobCrashed,
    /** An isolated child was killed by its resource envelope: the
     *  wall-clock deadline (SIGKILL from the parent) or the
     *  RLIMIT_CPU cap (SIGXCPU). */
    JobKilled
};

inline const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::None:               return "none";
      case ErrorCode::ConfigInvalid:      return "config-invalid";
      case ErrorCode::UnknownWorkload:    return "unknown-workload";
      case ErrorCode::IoError:            return "io-error";
      case ErrorCode::ParseError:         return "parse-error";
      case ErrorCode::InvariantViolation: return "invariant-violation";
      case ErrorCode::WatchdogExpired:    return "watchdog-expired";
      case ErrorCode::FaultPlanInvalid:   return "fault-plan-invalid";
      case ErrorCode::Fatal:              return "fatal";
      case ErrorCode::Internal:           return "internal";
      case ErrorCode::JobCrashed:         return "job-crashed";
      case ErrorCode::JobKilled:          return "job-killed";
    }
    return "?";
}

/** Inverse of errorCodeName. @return false on an unknown name. */
inline bool
parseErrorCode(const std::string &name, ErrorCode *out)
{
    for (int i = 0; i <= static_cast<int>(ErrorCode::JobKilled); i++) {
        ErrorCode code = static_cast<ErrorCode>(i);
        if (name == errorCodeName(code)) {
            *out = code;
            return true;
        }
    }
    return false;
}

class SimError : public std::runtime_error
{
  public:
    /**
     * @param code    taxonomy bucket
     * @param site    where it was raised (subsystem or file:line)
     * @param context the actionable detail for a human
     */
    SimError(ErrorCode code, std::string site, std::string context)
        : std::runtime_error("[" + std::string(errorCodeName(code)) +
                             "] " + site + ": " + context),
          code_(code), site_(std::move(site)),
          context_(std::move(context))
    {
    }

    ErrorCode code() const { return code_; }
    const std::string &site() const { return site_; }
    const std::string &context() const { return context_; }

  private:
    ErrorCode code_;
    std::string site_;
    std::string context_;
};

/** The throwing form of SSMT_FATAL: a user-level error. */
class FatalError : public SimError
{
  public:
    FatalError(std::string site, std::string context)
        : SimError(ErrorCode::Fatal, std::move(site),
                   std::move(context))
    {
    }
};

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_SIM_ERROR_HH
