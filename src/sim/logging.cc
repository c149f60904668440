#include "sim/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace ssmt
{
namespace detail
{

namespace
{

std::atomic<uint64_t> warnEmitted_{0};
std::atomic<uint64_t> warnSuppressed_{0};

} // namespace

uint64_t
warnSuppressedTotal()
{
    return warnSuppressed_.load(std::memory_order_relaxed);
}

uint64_t
warnEmittedTotal()
{
    return warnEmitted_.load(std::memory_order_relaxed);
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
warnImpl(const char *file, int line, const std::string &msg,
         std::atomic<uint64_t> &site_count)
{
    const uint64_t n =
        site_count.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n <= kWarnVerbatimPerSite) {
        warnEmitted_.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr, "warn: %s (%s:%d)\n", msg.c_str(), file,
                     line);
    } else if (n == kWarnVerbatimPerSite + 1) {
        warnEmitted_.fetch_add(1, std::memory_order_relaxed);
        warnSuppressed_.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr,
                     "warn: further warnings from %s:%d suppressed "
                     "after %llu occurrences\n",
                     file, line,
                     (unsigned long long)kWarnVerbatimPerSite);
    } else {
        warnSuppressed_.fetch_add(1, std::memory_order_relaxed);
    }
}

} // namespace detail
} // namespace ssmt
