/**
 * @file
 * Front-end path history: the last K taken-branch addresses, from
 * which Path_Id values for any n <= K are derived. The paper assumes
 * "the front-end can trivially generate our Path_Id hash and
 * associate the current value to each branch instruction as it is
 * fetched" (Section 4.1); this class is that hardware.
 */

#ifndef SSMT_CORE_PATH_TRACKER_HH
#define SSMT_CORE_PATH_TRACKER_HH

#include <cstdint>
#include <vector>

#include "core/path_id.hh"
#include "sim/logging.hh"

namespace ssmt
{
namespace core
{

class PathTracker
{
  public:
    /** @param depth maximum n supported (paper uses up to 16). */
    explicit PathTracker(int depth = 16);

    // push/pathId/recent run on every taken control-flow change and
    // under every routine prefix match, so they live in the header.

    /** Record a taken control-flow change at byte address @p addr. */
    void
    push(uint64_t addr)
    {
        ring_[head_] = addr;
        // depth_ is a runtime value; wrap with a compare, not a
        // modulo, on this per-taken-branch path.
        head_++;
        if (head_ == depth_)
            head_ = 0;
        pushes_++;
        cachedN_ = -1;
    }

    /**
     * Path_Id over the last @p n taken branches. If fewer than @p n
     * have occurred, hashes what exists (program warm-up). Memoized:
     * the core asks for the same fixed n once per terminating branch
     * but the history only changes on taken branches, so the
     * not-taken re-asks resolve in one compare.
     */
    PathId
    pathId(int n) const
    {
        SSMT_ASSERT(n <= depth_, "pathId(n) beyond tracker depth");
        if (n == cachedN_)
            return cachedId_;
        int have = size();
        int use = n < have ? n : have;
        PathId h = 0;
        // Oldest-first over the last `use` entries.
        for (int k = use - 1; k >= 0; k--)
            h = hashStep(h, recent(k));
        cachedN_ = n;
        cachedId_ = h;
        return h;
    }

    /**
     * The @p k-th most recent taken-branch address (k=0 is the most
     * recent). @return 0 if history is shorter than that.
     */
    uint64_t
    recent(int k) const
    {
        if (k >= size())
            return 0;
        // k < size() <= depth_, so one conditional add wraps.
        int idx = head_ - 1 - k;
        if (idx < 0)
            idx += depth_;
        return ring_[idx];
    }

    /** Number of taken branches seen so far (saturating at depth). */
    int
    size() const
    {
        return pushes_ < static_cast<uint64_t>(depth_)
                   ? static_cast<int>(pushes_)
                   : depth_;
    }

    uint64_t totalPushes() const { return pushes_; }

  private:
    std::vector<uint64_t> ring_;
    int depth_;
    int head_ = 0;      ///< next slot to write
    uint64_t pushes_ = 0;
    /** pathId(n) memo for the current history. The core asks for the
     *  id of the same fixed n once per terminating branch, but the
     *  history only changes on *taken* branches — the cache turns
     *  the not-taken re-asks into one compare. Derived state: push()
     *  invalidates it. */
    mutable int cachedN_ = -1;
    mutable PathId cachedId_ = 0;
};

} // namespace core
} // namespace ssmt

#endif // SSMT_CORE_PATH_TRACKER_HH

