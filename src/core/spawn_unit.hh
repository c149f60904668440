/**
 * @file
 * Spawn-time path checking and the in-flight abort mechanism
 * (paper Section 4.3.2).
 *
 * A microthread is only useful while the primary thread stays on the
 * difficult path it was built for. Two checks enforce this:
 *
 *  1. prefixMatches(): at a spawn attempt, the portion of the path
 *     that precedes the spawn point is compared against the
 *     front-end's recent taken-branch history. A mismatch aborts the
 *     spawn *before* a microcontext is allocated (the paper reports
 *     67% of attempts abort here).
 *
 *  2. PathMatcher: after allocation, every fetched control-flow
 *     change is matched against the path's remaining expected taken
 *     branches; any deviation aborts the microthread and reclaims
 *     its microcontext (66% of successful spawns abort this way).
 */

#ifndef SSMT_CORE_SPAWN_UNIT_HH
#define SSMT_CORE_SPAWN_UNIT_HH

#include <cstdint>

#include "core/microthread.hh"
#include "core/path_tracker.hh"
#include "isa/inst.hh"

namespace ssmt
{
namespace core
{

/**
 * Check the pre-spawn portion of @p thread's path against the
 * front-end history in @p tracker. The prefix holds the path's taken
 * branches older than the spawn point, oldest first; they must be
 * exactly the most recent taken branches observed.
 *
 * Header-inline: runs for every routine indexed at every spawn-point
 * pc the front end fetches.
 */
inline bool
prefixMatches(const MicroThread &thread, const PathTracker &tracker)
{
    // prefix is oldest-first; tracker.recent(0) is the most recent
    // taken branch. The most recent prefix entry must be recent(0),
    // the one before it recent(1), and so on.
    size_t len = thread.prefix.size();
    for (size_t i = 0; i < len; i++) {
        const ExpectedBranch &expect = thread.prefix[len - 1 - i];
        uint64_t addr = expect.pc * isa::kInstBytes;
        if (tracker.recent(static_cast<int>(i)) != addr)
            return false;
    }
    return true;
}

class PathMatcher
{
  public:
    enum class Status : uint8_t
    {
        Live,       ///< still on the path
        Complete,   ///< all expected taken branches matched
        Deviated    ///< left the path; abort the microthread
    };

    explicit PathMatcher(const MicroThread *thread);

    /**
     * Feed one fetched control-flow event from the primary thread.
     * Header-inline: every live matcher sees every fetched
     * control-flow change.
     * @return the matcher status after the event.
     */
    Status
    onControlFlow(uint64_t pc, bool taken, uint64_t target)
    {
        if (status_ != Status::Live)
            return status_;

        const ExpectedBranch &expect = thread_->expected[index_];
        if (taken) {
            if (pc == expect.pc && target == expect.target) {
                index_++;
                if (index_ == thread_->expected.size())
                    status_ = Status::Complete;
            } else {
                status_ = Status::Deviated;
            }
        } else if (pc == expect.pc) {
            // The path needed this branch taken.
            status_ = Status::Deviated;
        }
        return status_;
    }

    Status status() const { return status_; }
    size_t matched() const { return index_; }

  private:
    const MicroThread *thread_;
    size_t index_ = 0;
    Status status_;
};

} // namespace core
} // namespace ssmt

#endif // SSMT_CORE_SPAWN_UNIT_HH

