#include "sim/faultinject.hh"

namespace ssmt
{
namespace sim
{

namespace
{

struct SiteName
{
    FaultSite site;
    const char *name;
};

constexpr SiteName kSiteNames[] = {
    {FaultSite::None, "none"},
    {FaultSite::PredCacheFlip, "pred-cache-flip"},
    {FaultSite::PredCacheDrop, "pred-cache-drop"},
    {FaultSite::PathCacheCorrupt, "path-cache-corrupt"},
    {FaultSite::PathCacheEvict, "path-cache-evict"},
    {FaultSite::MicroRamTruncate, "microram-truncate"},
    {FaultSite::MicroRamGarble, "microram-garble"},
    {FaultSite::SpawnDrop, "spawn-drop"},
    {FaultSite::SpawnDelay, "spawn-delay"},
};

} // namespace

const char *
faultSiteName(FaultSite site)
{
    for (const SiteName &entry : kSiteNames)
        if (entry.site == site)
            return entry.name;
    return "?";
}

bool
parseFaultSite(const std::string &name, FaultSite *out)
{
    for (const SiteName &entry : kSiteNames) {
        if (name == entry.name) {
            *out = entry.site;
            return true;
        }
    }
    return false;
}

const std::vector<FaultSite> &
allFaultSites()
{
    static const std::vector<FaultSite> sites = [] {
        std::vector<FaultSite> out;
        for (const SiteName &entry : kSiteNames)
            if (entry.site != FaultSite::None)
                out.push_back(entry.site);
        return out;
    }();
    return sites;
}

std::string
FaultPlan::validate() const
{
    if (site == FaultSite::None && count > 0) {
        return "fault plan has count " + std::to_string(count) +
               " but site 'none'; pick a site or set count to 0";
    }
    if (!enabled())
        return "";
    if (seed == 0)
        return "fault plan seed must be non-zero (xorshift state)";
    if (period == 0)
        return "fault plan period must be >= 1 cycle";
    return "";
}

FaultInjector::FaultInjector(const FaultPlan &plan)
    : plan_(plan), rng_(plan.seed ? plan.seed : 1),
      nextEligible_(plan.startCycle)
{
    // Decorrelate nearby seeds before the first firing decision.
    roll();
    roll();
}

uint64_t
FaultInjector::roll()
{
    // xorshift64* (Vigna): cheap, full-period, good high bits.
    uint64_t x = rng_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    rng_ = x;
    return x * 0x2545f4914f6cdd1dull;
}

bool
FaultInjector::shouldFire(uint64_t cycle)
{
    if (!enabled() || stats_.injected >= plan_.count)
        return false;
    if (cycle < nextEligible_)
        return false;
    stats_.armed++;
    lastFireCycle_ = cycle;
    return true;
}

void
FaultInjector::noteInjected()
{
    stats_.injected++;
    // Re-arm after a uniform gap in [1, 2*period] from the
    // deterministic stream, anchored at the firing cycle so a long
    // quiet stretch does not turn into a burst.
    nextEligible_ = lastFireCycle_ + 1 + roll() % (2 * plan_.period);
}

void
FaultInjector::noteNoTarget()
{
    stats_.noTarget++;
    // The structure was empty; retry soon, but not every cycle — a
    // victim scan over an 8K-entry Path Cache must not become a
    // per-cycle cost.
    nextEligible_ = lastFireCycle_ + 1 + roll() % 32;
}

ArchSignature
ArchSignature::of(const Stats &stats)
{
    ArchSignature sig;
    sig.retiredInsts = stats.retiredInsts;
    sig.condBranches = stats.condBranches;
    sig.indirectBranches = stats.indirectBranches;
    sig.condHwMispredicts = stats.condHwMispredicts;
    sig.indirectHwMispredicts = stats.indirectHwMispredicts;
    return sig;
}

std::string
ArchSignature::diff(const ArchSignature &other) const
{
    std::string out;
    auto field = [&](const char *name, uint64_t a, uint64_t b) {
        if (a == b)
            return;
        out += std::string(name) + ": " + std::to_string(a) +
               " != " + std::to_string(b) + "; ";
    };
    field("retiredInsts", retiredInsts, other.retiredInsts);
    field("condBranches", condBranches, other.condBranches);
    field("indirectBranches", indirectBranches,
          other.indirectBranches);
    field("condHwMispredicts", condHwMispredicts,
          other.condHwMispredicts);
    field("indirectHwMispredicts", indirectHwMispredicts,
          other.indirectHwMispredicts);
    return out;
}

} // namespace sim
} // namespace ssmt
