/**
 * @file
 * Deterministic fault injection into the speculative helper state.
 *
 * The defining property of the difficult-path mechanism (paper
 * Section 4.3) is that microthreads are *purely speculative*: the
 * Prediction Cache, Path Cache, MicroRAM and the spawn machinery may
 * hold arbitrary garbage and the committed instruction stream must
 * not change — only performance may. This subsystem attacks that
 * property on purpose. A FaultPlan names one fault site, a seed and a
 * fault budget; the core arms a FaultInjector from it and, at seeded
 * pseudo-random cycles, flips prediction-cache outcomes, corrupts or
 * evicts path-cache entries, truncates or garbles MicroRAM slices,
 * and drops or delays spawns. Campaigns (`ssmt_verify_golden
 * --faults`, tests/test_faultinject.cc) then assert that the
 * architectural counters stay byte-identical to the fault-free run,
 * whose counters match the committed golden/ snapshots.
 *
 * Everything is deterministic: all decisions derive from an
 * xorshift64* stream seeded by FaultPlan::seed, and victim selection
 * scans structures in a fixed order, so a campaign cell reproduces
 * bit-for-bit regardless of --jobs.
 */

#ifndef SSMT_SIM_FAULTINJECT_HH
#define SSMT_SIM_FAULTINJECT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace ssmt
{
namespace sim
{

/** Which speculative structure a plan attacks. */
enum class FaultSite : uint8_t
{
    None,             ///< injection disabled
    PredCacheFlip,    ///< invert a deposited prediction's outcome
    PredCacheDrop,    ///< invalidate a deposited prediction
    PathCacheCorrupt, ///< scramble an entry's difficulty training state
    PathCacheEvict,   ///< force-evict an entry (promoted ones demote)
    MicroRamTruncate, ///< chop the tail off a stored routine
    MicroRamGarble,   ///< corrupt a routine's metadata (seq/path info)
    SpawnDrop,        ///< suppress spawn attempts for a window
    SpawnDelay        ///< delay the next spawn's dispatch eligibility
};

const char *faultSiteName(FaultSite site);

/** Parse "pred-cache-flip" etc.; @return false on unknown names. */
bool parseFaultSite(const std::string &name, FaultSite *out);

/** Every injectable site, in enum order (excludes None). */
const std::vector<FaultSite> &allFaultSites();

/** A seeded fault campaign cell: what to attack, when, how often. */
struct FaultPlan
{
    FaultSite site = FaultSite::None;
    uint64_t seed = 1;       ///< RNG seed (must be non-zero)
    uint64_t count = 0;      ///< fault budget; 0 disables injection
    uint64_t startCycle = 0; ///< no faults before this cycle
    /** Mean gap between faults; actual gaps are uniform in
     *  [1, 2*period]. */
    uint64_t period = 200;

    bool
    enabled() const
    {
        return site != FaultSite::None && count > 0;
    }

    /** @return "" if well-formed, else an actionable diagnostic. */
    std::string validate() const;
};

/** Bookkeeping of what a FaultInjector actually did. */
struct FaultStats
{
    uint64_t armed = 0;     ///< firing opportunities taken
    uint64_t injected = 0;  ///< faults that mutated real state
    uint64_t noTarget = 0;  ///< fired but the structure was empty
};

/**
 * The per-core injection engine. The owning core calls shouldFire()
 * once per cycle; when it returns true the core attempts the plan's
 * mutation, drawing any victim/value randomness from roll(), and
 * reports the outcome via noteInjected()/noteNoTarget().
 */
class FaultInjector
{
  public:
    FaultInjector() = default;
    explicit FaultInjector(const FaultPlan &plan);

    bool enabled() const { return plan_.enabled(); }
    FaultSite site() const { return plan_.site; }
    const FaultPlan &plan() const { return plan_; }
    const FaultStats &stats() const { return stats_; }

    /** True when a fault should be attempted this cycle. */
    bool shouldFire(uint64_t cycle);

    /** Next value of the deterministic xorshift64* stream. */
    uint64_t roll();

    /** The attempted mutation hit real state. */
    void noteInjected();

    /** The attempted mutation found nothing to corrupt; the injector
     *  re-arms after a short gap instead of a full period so sparse
     *  structures still collect their fault budget. */
    void noteNoTarget();

  private:
    FaultPlan plan_;
    FaultStats stats_;
    uint64_t rng_ = 0;
    uint64_t nextEligible_ = 0;
    uint64_t lastFireCycle_ = 0;
};

/**
 * The architectural footprint of a run: the counters that describe
 * the committed instruction stream and therefore must be invariant
 * under every speculative-state fault. Cycle counts and
 * used-misprediction counts legitimately move (that is the point of
 * the mechanism); these five must not.
 */
struct ArchSignature
{
    uint64_t retiredInsts = 0;
    uint64_t condBranches = 0;
    uint64_t indirectBranches = 0;
    uint64_t condHwMispredicts = 0;
    uint64_t indirectHwMispredicts = 0;

    static ArchSignature of(const Stats &stats);

    bool operator==(const ArchSignature &) const = default;

    /** Human-readable field-by-field mismatch vs @p other ("" if
     *  identical). */
    std::string diff(const ArchSignature &other) const;
};

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_FAULTINJECT_HH
