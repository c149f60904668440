/**
 * @file
 * The Prediction Cache (paper Section 4.3.3): the small structure
 * through which microthreads communicate branch outcomes to the
 * front-end.
 *
 * Entries are keyed by the (Path_Id, Seq_Num) pair, which names a
 * particular dynamic instance of a branch on a particular path, so
 * microthread predictions written by Store_PCache naturally match up
 * with the branches intended to consume them and "aliasing is almost
 * non-existent". Stale entries are reclaimed by comparing Seq_Num
 * against the front-end's position, which is what lets the structure
 * stay tiny (128 entries).
 *
 * The storage is set-indexed like the Path Cache: the key pair
 * hashes to a set and only that set's ways are searched, so the
 * front-end probe on every fetched terminating branch touches a
 * handful of entries instead of scanning the whole table. Within a
 * set, replacement prefers an invalid way and otherwise evicts the
 * entry with the oldest Seq_Num (the most likely to already be
 * stale), exactly as the fully-associative organization did.
 */

#ifndef SSMT_CORE_PREDICTION_CACHE_HH
#define SSMT_CORE_PREDICTION_CACHE_HH

#include <cstdint>
#include <vector>

#include "core/path_id.hh"

namespace ssmt
{
namespace core
{

struct PredEntry
{
    bool valid = false;
    PathId pathId = 0;
    uint64_t seqNum = 0;        ///< dynamic instance being predicted
    bool taken = false;
    uint64_t target = 0;
    uint64_t writeCycle = 0;    ///< when the prediction became usable
    bool consumed = false;      ///< a fetched branch read it
};

class PredictionCache
{
  public:
    explicit PredictionCache(uint32_t num_entries = 128);

    /**
     * Deposit a microthread prediction (Store_PCache execution).
     * Overwrites an existing entry with the same key.
     */
    void write(PathId id, uint64_t seq_num, bool taken,
               uint64_t target, uint64_t cycle);

    /** Front-end probe at branch fetch. @return entry or nullptr.
     *  Header-inline: runs once per fetched terminating branch, and
     *  the empty-cache outcome (all of warmup, and any stretch with
     *  no microthread output in flight) must cost one compare, not a
     *  hash and a set scan. The lookup counter still moves on that
     *  fast path — it is architectural. */
    const PredEntry *
    lookup(PathId id, uint64_t seq_num) const
    {
        lookups_++;
        if (liveCount_ == 0)
            return nullptr;
        const PredEntry *base =
            &entries_[static_cast<size_t>(setIndex(id, seq_num)) *
                      assoc_];
        for (uint32_t way = 0; way < assoc_; way++) {
            const PredEntry &entry = base[way];
            if (entry.valid && entry.pathId == id &&
                entry.seqNum == seq_num) {
                lookupHits_++;
                return &entry;
            }
        }
        return nullptr;
    }

    /** Mark an entry as consumed by a fetched branch. */
    void markConsumed(PathId id, uint64_t seq_num);

    /**
     * Reclaim entries whose Seq_Num is older than the front-end
     * position @p seq_num. Entries reclaimed without ever being
     * consumed are counted (predictions for branches never reached).
     */
    void reclaimOlderThan(uint64_t seq_num);

    uint64_t writes() const { return writes_; }
    uint64_t overwrites() const { return overwrites_; }
    uint64_t lookupHits() const { return lookupHits_; }
    uint64_t lookups() const { return lookups_; }
    uint64_t reclaimedUnconsumed() const { return reclaimedUnconsumed_; }
    uint64_t evictions() const { return evictions_; }

    // Geometry introspection (tests cross-check replacement against
    // a reference model that needs the same set mapping).
    uint32_t numSets() const { return numSets_; }
    uint32_t assoc() const { return assoc_; }

    /** Set index of a key under this cache's geometry. */
    uint32_t
    setIndex(PathId id, uint64_t seq_num) const
    {
        // Multiplicative mix of both key halves; the pair must spread
        // across sets even though Seq_Num advances sequentially.
        uint64_t h = (id ^ (seq_num * 0x9e3779b97f4a7c15ull));
        h ^= h >> 32;
        h *= 0xc2b2ae3d27d4eb4full;
        h ^= h >> 29;
        return static_cast<uint32_t>(h) & (numSets_ - 1);
    }

    uint32_t occupancy() const { return liveCount_; }

    // ---- Fault injection (sim/faultinject.hh) ----
    // Both hooks bypass lookup()/write() deliberately: injected
    // corruption must not perturb the lookup/write counters the
    // invariant checker ties to front-end behavior.

    /** Invert the outcome of the rnd-th valid entry (taken bit
     *  flipped, target garbled). @return false if the cache is empty. */
    bool injectFlip(uint64_t rnd);

    /** Invalidate the rnd-th valid entry without the reclaim
     *  bookkeeping (models a dropped deposit). @return false if the
     *  cache is empty. */
    bool injectDrop(uint64_t rnd);

  private:
    std::vector<PredEntry> entries_;    ///< set-major: set * assoc_ + way
    uint32_t numSets_;
    uint32_t assoc_;
    /** Valid-entry count, kept in step with every valid-bit
     *  transition: it makes occupancy() O(1) and lets the retire
     *  loop's periodic reclaimOlderThan() skip the table scan while
     *  the cache is empty (all of baseline/oracle, and most of a
     *  microthread run's warmup). */
    uint32_t liveCount_ = 0;
    /** Lower bound on the seqNum of any valid entry (~0 when none).
     *  Predictions target branch instances ahead of retirement, so
     *  almost every reclaimOlderThan(retired) call sits at or below
     *  this bound and skips the table scan entirely. Insertions
     *  tighten it; single-entry invalidations may leave it stale-low,
     *  which only costs a scan, never a missed reclaim. */
    uint64_t minLiveSeq_ = ~0ull;
    mutable uint64_t lookups_ = 0;
    mutable uint64_t lookupHits_ = 0;
    uint64_t writes_ = 0;
    uint64_t overwrites_ = 0;
    uint64_t reclaimedUnconsumed_ = 0;
    uint64_t evictions_ = 0;

    PredEntry *setBase(PathId id, uint64_t seq_num);
    PredEntry *findSlot(PathId id, uint64_t seq_num);
};

} // namespace core
} // namespace ssmt

#endif // SSMT_CORE_PREDICTION_CACHE_HH

