#include "sim/jobs.hh"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <string>
#include <thread>

#include "sim/logging.hh"

namespace ssmt
{
namespace sim
{

unsigned
hostThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

unsigned
resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("SSMT_JOBS")) {
        // --jobs's rules: plain decimal digits from 1 to the range
        // of unsigned (no blanks, no sign, no wrap), or "auto".
        const std::string text = env;
        const char *end = text.data() + text.size();
        unsigned parsed = 0;
        auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
        if (ec == std::errc() && ptr == end && parsed > 0)
            return parsed;
        static std::atomic<bool> warned{false};
        if (text != "auto" && !warned.exchange(true)) {
            SSMT_WARN("SSMT_JOBS='" + text +
                      "' is not a worker count from 1 to " +
                      std::to_string(~0u) +
                      " or 'auto'; using every host thread");
        }
    }
    return hostThreads();
}

} // namespace sim
} // namespace ssmt
