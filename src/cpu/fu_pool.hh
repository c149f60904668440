/**
 * @file
 * Shared functional-unit pool: 16 all-purpose, fully-pipelined units
 * (Table 3). Issue slots are tracked per future cycle so primary and
 * microthread instructions contend for the same hardware.
 */

#ifndef SSMT_CPU_FU_POOL_HH
#define SSMT_CPU_FU_POOL_HH

#include <cstdint>
#include <vector>

#include "sim/logging.hh"

namespace ssmt
{
namespace cpu
{

/**
 * Per-cycle issue-slot counts kept in a ring indexed by cycle. Slots
 * are reset lazily: a slot stamped with another cycle is reused only
 * when that stamp is older than the caller's current cycle, so a
 * claim at or after "now" (a live claim) is never dropped. A new
 * claim that lands on a live one doubles the ring, re-places the
 * live claims and retries, so the ring covers the live scheduling
 * span at any distance. It starts at kInitialSlots: the longest
 * distance the workload suite reaches at scale 1 is 684 cycles (in
 * oracle-all-branches mode), so the ring never grows there. The
 * ring length is not architectural: every grant is what an
 * unbounded per-cycle table would give.
 */
class FuPool
{
  public:
    /** @param num_fus issue slots per cycle */
    explicit FuPool(int num_fus = 16);

    /**
     * Claim the first issue slot at or after @p earliest.
     * In the header: every primary-thread instruction and every
     * microthread op claims a slot (tens of millions of calls per
     * run), and the loop almost always grants on its first probe.
     * @param now the current cycle: claims before it are dead, and
     *            @p earliest must not precede it
     * @return the cycle the slot was granted.
     */
    uint64_t
    schedule(uint64_t earliest, uint64_t now)
    {
        SSMT_ASSERT(earliest >= now, "FU claim before the current cycle");
        uint64_t cycle = earliest;
        for (;;) {
            Slot &slot = slots_[cycle & mask_];
            if (slot.cycle != cycle) {
                if (slot.used != 0 && slot.cycle >= now) {
                    grow(now);
                    continue;
                }
                slot.cycle = cycle;
                slot.used = 0;
            }
            if (slot.used < numFus_) {
                slot.used++;
                granted_++;
                return cycle;
            }
            cycle++;
        }
    }

    int numFus() const { return numFus_; }
    uint64_t slotsGranted() const { return granted_; }
    /** Current ring length (for tests; not architectural). */
    size_t ringSlots() const { return slots_.size(); }

    /** Slots in a freshly built pool. */
    static constexpr size_t kInitialSlots = 1024;

  private:
    /** Issue slots claimed at one cycle; used == 0 marks a slot that
     *  was never claimed. */
    struct Slot
    {
        uint64_t cycle = 0;
        int used = 0;
    };

    int numFus_;
    std::vector<Slot> slots_;
    uint64_t mask_;
    uint64_t granted_ = 0;

    /** Double the ring, keeping every claim at or after @p now. */
    void grow(uint64_t now);
};

} // namespace cpu
} // namespace ssmt

#endif // SSMT_CPU_FU_POOL_HH
