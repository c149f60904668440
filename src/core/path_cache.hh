/**
 * @file
 * The Path Cache (paper Section 4.1): the back-end structure that
 * identifies difficult paths at run time.
 *
 * Each entry tracks one Path_Id with an occurrence counter and a
 * hardware-misprediction counter. At the end of each training
 * interval the misprediction rate is compared against the difficulty
 * threshold T and latched into the entry's Difficult bit; the
 * counters then reset. A Promoted bit records whether a microthread
 * currently predicts this path.
 *
 * Allocation is tuned to favor difficult paths: a new entry is
 * allocated only when the terminating branch was mispredicted by the
 * hardware predictor (the paper reports this skips ~45% of possible
 * allocations). Replacement is a modified LRU that prefers victims
 * without the Difficult bit set.
 */

#ifndef SSMT_CORE_PATH_CACHE_HH
#define SSMT_CORE_PATH_CACHE_HH

#include <cstdint>
#include <vector>

#include "core/path_id.hh"
#include "sim/table_pool.hh"

namespace ssmt
{
namespace core
{

/** What a Path Cache update decided (drives promotion/demotion). */
enum class PathEvent : uint8_t
{
    None,           ///< nothing notable
    RequestPromote, ///< Difficult set but not yet Promoted
    Demote          ///< Difficult cleared while Promoted
};

class PathCache
{
  public:
    /**
     * @param num_entries       total entries (8K in the paper)
     * @param assoc             ways per set
     * @param training_interval occurrences per difficulty evaluation
     * @param threshold         difficulty threshold T
     */
    PathCache(uint32_t num_entries = 8192, uint32_t assoc = 8,
              uint32_t training_interval = 32, double threshold = 0.10);

    /**
     * Update the entry for @p id as its terminating branch retires.
     *
     * @param id            the branch's Path_Id
     * @param hw_mispredict the hardware predictor was wrong
     * @return the resulting promotion/demotion event, if any
     */
    PathEvent update(PathId id, bool hw_mispredict);

    /** @return true if @p id is present and currently difficult. */
    bool isDifficult(PathId id) const;

    /** @return true if @p id is present and currently promoted. */
    bool isPromoted(PathId id) const;

    /** Mark @p id as promoted (builder satisfied the request). */
    void setPromoted(PathId id, bool promoted);

    /** Number of currently difficult entries (for diagnostics). */
    uint32_t difficultCount() const;

    /** Number of valid entries (for occupancy-bound checks). */
    uint32_t occupancy() const;

    // Statistics for the paper's Section 4.1 claims.
    uint64_t updates() const { return updates_; }
    uint64_t allocations() const { return allocations_; }
    uint64_t allocationsSkipped() const { return allocationsSkipped_; }
    uint64_t evictions() const { return evictions_; }
    uint64_t difficultEvictions() const { return difficultEvictions_; }

    uint32_t numEntries() const
    {
        return static_cast<uint32_t>(entries_.size());
    }

    /** Cheap guard so the owner's retire loop can skip the drain
     *  entirely in the common no-eviction case. */
    bool
    hasEvictedPromotions() const
    {
        return !evictedPromotions_.empty();
    }

    /**
     * Move the Path_Ids of *promoted* entries evicted since the last
     * call into @p out (cleared first, its storage reused). The owner
     * must demote these in the MicroRAM, or their routines would
     * leak.
     */
    void drainEvictedPromotions(std::vector<PathId> &out);

    // ---- Fault injection (sim/faultinject.hh) ----

    /** Scramble the training state of the rnd-th valid entry: the
     *  Difficult bit flips and the misprediction counter is
     *  re-rolled. Promotion/demotion still flows through update(), so
     *  the owner's promotion bookkeeping stays conserved. @return
     *  false if the cache is empty. */
    bool injectCorrupt(uint64_t rnd);

    /** Force-evict the rnd-th valid entry with the same bookkeeping
     *  as a replacement eviction (promoted victims land in the
     *  evicted-promotions drain, which the owner must demote).
     *  @return false if the cache is empty. */
    bool injectEvict(uint64_t rnd);

  private:
    struct Entry
    {
        bool valid = false;
        PathId id = 0;
        uint32_t occurrences = 0;
        uint32_t mispredicts = 0;
        bool difficult = false;
        bool promoted = false;
        uint64_t lastUse = 0;
    };

    sim::TableVector<Entry> entries_;
    /** Tag array mirroring entries_[i].id (valid or not): a set's
     *  tags pack into one cache line, so the dominant miss probe
     *  scans 64 bytes instead of the set's five lines of full
     *  entries. A tag hit is confirmed against the entry (valid +
     *  id) before use, so a stale tag can never produce a false
     *  positive. */
    sim::TableVector<PathId> tags_;
    uint32_t numSets_;
    uint32_t assoc_;
    uint32_t trainingInterval_;
    double threshold_;
    uint64_t stamp_ = 0;

    uint64_t updates_ = 0;
    uint64_t allocations_ = 0;
    uint64_t allocationsSkipped_ = 0;
    uint64_t evictions_ = 0;
    uint64_t difficultEvictions_ = 0;
    std::vector<PathId> evictedPromotions_;

    Entry *find(PathId id);
    const Entry *find(PathId id) const;
    Entry *allocate(PathId id);

    /** Shared lookup body for the const and non-const overloads;
     *  @p Self is PathCache or const PathCache. */
    template <typename Self>
    static auto findIn(Self &self, PathId id)
        -> decltype(self.find(id));
};

} // namespace core
} // namespace ssmt

#endif // SSMT_CORE_PATH_CACHE_HH
