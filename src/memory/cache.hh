/**
 * @file
 * Tag-only set-associative cache model with true-LRU replacement.
 *
 * Data values live in the functional MemoryImage; caches model only
 * presence/latency, which is all the timing core needs. This mirrors
 * the paper's Table 3 hierarchy where caches affect load latency (and
 * provide the prefetching side-effect of microthreads, Section 5.3)
 * but not correctness.
 */

#ifndef SSMT_MEMORY_CACHE_HH
#define SSMT_MEMORY_CACHE_HH

#include <cstdint>
#include <string>

#include "sim/table_pool.hh"

namespace ssmt
{
namespace memory
{

class Cache
{
  public:
    /**
     * @param name        for diagnostics
     * @param size_bytes  total capacity (power of two)
     * @param assoc       ways per set
     * @param line_bytes  line size (power of two)
     */
    Cache(const std::string &name, uint64_t size_bytes, uint32_t assoc,
          uint32_t line_bytes);

    /**
     * Look up @p addr; updates LRU and hit/miss counters.
     * In the header because every fetched instruction and every
     * modeled load probes a cache — the hit path must fold into the
     * caller; the miss path tails into the out-of-line fill.
     * @param allocate_on_miss fill the line if it missed
     * @return true on hit
     */
    bool
    access(uint64_t addr, bool allocate_on_miss = true)
    {
        uint64_t line = addr >> lineShift_;
        uint64_t set = line & (numSets_ - 1);
        Line *base = &sets_[set * assoc_];
        const uint64_t *tags = &tags_[set * assoc_];

        stamp_++;
        for (uint32_t way = 0; way < assoc_; way++) {
            if (tags[way] == line && base[way].valid &&
                base[way].tag == line) {
                base[way].lastUse = stamp_;
                hits_++;
                return true;
            }
        }
        misses_++;
        if (allocate_on_miss)
            fillLine(set, line);
        return false;
    }

    /** Look up without any state change. */
    bool probe(uint64_t addr) const;

    /** Fill the line containing @p addr (no hit/miss accounting). */
    void fill(uint64_t addr);

    /** Invalidate the line containing @p addr if present. */
    void invalidate(uint64_t addr);

    const std::string &name() const { return name_; }
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t accesses() const { return hits_ + misses_; }
    uint32_t lineBytes() const { return lineBytes_; }
    uint64_t numSets() const { return numSets_; }
    uint32_t assoc() const { return assoc_; }

  private:
    struct Line
    {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t lastUse = 0;
    };

    std::string name_;
    uint32_t assoc_;
    uint32_t lineBytes_;
    uint64_t numSets_ = 0;
    uint32_t lineShift_ = 0;
    sim::TableVector<Line> sets_;
    /** Tag of each way when valid, ~0 otherwise — a packed mirror of
     *  sets_ so the probe loop in access() compares against one
     *  contiguous run of tags instead of striding across 24-byte
     *  Lines. A tag match is re-verified against the Line (a real
     *  line tag could equal the ~0 sentinel), so the mirror can never
     *  change an outcome. */
    sim::TableVector<uint64_t> tags_;
    uint64_t stamp_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;

    void fillLine(uint64_t set, uint64_t tag);
};

} // namespace memory
} // namespace ssmt

#endif // SSMT_MEMORY_CACHE_HH

