/**
 * @file
 * The MicroRAM (paper Sections 4.3.1 and 5.2): on-chip storage for
 * microthread routines. Its capacity bounds the number of
 * concurrently promoted paths (8K in the paper's experiments).
 *
 * Alongside routine storage this class keeps the spawn index the
 * front-end consults: spawn-point pc -> the routines to attempt.
 */

#ifndef SSMT_CORE_MICRORAM_HH
#define SSMT_CORE_MICRORAM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/microthread.hh"
#include "sim/flat_hash.hh"

namespace ssmt
{
namespace core
{

/** One spawn-index entry: a routine spawnable at some pc. The
 *  shared handle aliases the owning entry in the routine store —
 *  insert() and remove() keep the two in lockstep — so a spawn
 *  attempt both reads the routine and seeds the spawned context's
 *  owning handle without ever probing the store again. The newest
 *  prefix branch is denormalized here too: most attempts fail on
 *  that very comparison (the paper's 67% prefix-abort rate), and
 *  keeping it in the index entry lets them fail without touching
 *  the routine's memory at all. */
struct SpawnTarget
{
    PathId id;
    std::shared_ptr<const MicroThread> thread;
    /** prefix.back().pc as a path address, valid when prefixLen > 0:
     *  the first (most recent) branch prefixMatches() compares. */
    uint64_t lastPrefixAddr;
    uint32_t prefixLen;
};

class MicroRam
{
  public:
    explicit MicroRam(uint32_t capacity = 8192);

    /**
     * Install @p thread. Replaces any routine already stored for the
     * same path (rebuilds). @return false if the MicroRAM is full,
     * in which case the promotion request fails and the Path Cache
     * keeps re-requesting.
     */
    bool insert(MicroThread thread);

    /** @return the routine for @p id, or nullptr. Header-inline:
     *  probed by spawn attempts and difficulty re-checks on the
     *  fetch path. */
    const MicroThread *
    find(PathId id) const
    {
        const std::shared_ptr<const MicroThread> *thread =
            routines_.find(id);
        return thread ? thread->get() : nullptr;
    }

    /**
     * Shared handle to the routine for @p id (empty if absent).
     * Spawned microcontexts hold this so a routine being demoted or
     * rebuilt mid-flight stays alive until its instances drain.
     */
    std::shared_ptr<const MicroThread> findShared(PathId id) const;

    bool contains(PathId id) const { return find(id) != nullptr; }

    /** Remove the routine for @p id (demotion). No-op if absent. */
    void remove(PathId id);

    /**
     * Size the dense spawn-point filter for a program of @p num_pcs
     * instructions. routinesAt() is asked about *every* fetched
     * instruction; with the filter in place the (overwhelmingly
     * common) "no routine spawns here" answer is one array load
     * instead of a hash probe. Call it before the first insert.
     * Optional — without it routinesAt() falls back to probing the
     * spawn index.
     */
    void setProgramSize(size_t num_pcs);

    /** Routines whose spawn point is @p pc (possibly empty). */
    const std::vector<SpawnTarget> &
    routinesAt(uint64_t pc) const
    {
        if (pc < spawnAtPc_.size()) {
            if (spawnAtPc_[pc] == 0)
                return kEmpty;
        }
        const std::vector<SpawnTarget> *ids = spawnIndex_.find(pc);
        return ids ? *ids : kEmpty;
    }

    /** All stored path ids (diagnostics/examples). */
    std::vector<PathId> ids() const;

    uint32_t size() const
    {
        return static_cast<uint32_t>(routines_.size());
    }

    uint32_t capacity() const { return capacity_; }

    uint64_t insertions() const { return insertions_; }
    uint64_t rejectedFull() const { return rejectedFull_; }
    uint64_t removals() const { return removals_; }

  private:
    uint32_t capacity_;
    sim::FlatMap<std::shared_ptr<const MicroThread>> routines_;
    sim::FlatMap<std::vector<SpawnTarget>> spawnIndex_;
    /** Routine count per spawn pc — the fetch-path filter. Empty
     *  until setProgramSize(). */
    std::vector<uint16_t> spawnAtPc_;
    uint64_t insertions_ = 0;
    uint64_t rejectedFull_ = 0;
    uint64_t removals_ = 0;

    static const std::vector<SpawnTarget> kEmpty;

    void indexSpawn(uint64_t pc, PathId id,
                    const std::shared_ptr<const MicroThread> &thread);
    void unindex(const MicroThread &thread);
};

} // namespace core
} // namespace ssmt

#endif // SSMT_CORE_MICRORAM_HH

