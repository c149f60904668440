/**
 * @file
 * The Table 3 memory hierarchy: L1I, L1D, unified L2, DRAM.
 *
 * Latency model (hit-level based, matching Table 3):
 *  - L1 (either side) hit: 3 cycles
 *  - L2 hit:                3 + 6 cycles
 *  - DRAM:                  3 + 6 + 100 cycles
 *
 * Stores are sent directly to the L2 and invalidated in the L1, as the
 * paper specifies. Microthread loads use the same read path, which is
 * what produces the paper's "prefetching side-effect" (Section 5.3).
 */

#ifndef SSMT_MEMORY_HIERARCHY_HH
#define SSMT_MEMORY_HIERARCHY_HH

#include <cstdint>

#include "memory/cache.hh"

namespace ssmt
{
namespace memory
{

/** Geometry and latency knobs; defaults mirror Table 3. */
struct HierarchyConfig
{
    uint64_t l1iSize = 64 * 1024;
    uint32_t l1iAssoc = 4;
    uint64_t l1dSize = 64 * 1024;
    uint32_t l1dAssoc = 2;
    uint64_t l2Size = 1024 * 1024;
    uint32_t l2Assoc = 8;
    uint32_t lineBytes = 64;
    int l1Latency = 3;
    int l2Latency = 6;
    int dramLatency = 100;
};

class Hierarchy
{
  public:
    explicit Hierarchy(const HierarchyConfig &config = {});

    // read/write/fetch are header-inline: every fetched instruction
    // probes the I-side and every modeled load/store the D-side, and
    // the dominant L1-hit outcome is one set scan the caller should
    // absorb without a call.

    /** Data-side read; fills on miss. @return total latency. */
    int
    read(uint64_t addr)
    {
        if (l1d_.access(addr, false))
            return config_.l1Latency;
        if (l2_.access(addr)) {
            l1d_.fill(addr);
            return config_.l1Latency + config_.l2Latency;
        }
        l1d_.fill(addr);
        return config_.l1Latency + config_.l2Latency +
               config_.dramLatency;
    }

    /** Data-side write: L1 invalidate, sent to L2 (fills L2). */
    void
    write(uint64_t addr)
    {
        // Table 3: "stores are sent directly to the L2 and
        // invalidated in the L1".
        l1d_.invalidate(addr);
        l2_.access(addr);
    }

    /** Instruction fetch of the line containing @p byte_addr. */
    int
    fetch(uint64_t byte_addr)
    {
        if (l1i_.access(byte_addr, false))
            return config_.l1Latency;
        if (l2_.access(byte_addr)) {
            l1i_.fill(byte_addr);
            return config_.l1Latency + config_.l2Latency;
        }
        l1i_.fill(byte_addr);
        return config_.l1Latency + config_.l2Latency +
               config_.dramLatency;
    }

    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const HierarchyConfig &config() const { return config_; }

  private:
    HierarchyConfig config_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
};

} // namespace memory
} // namespace ssmt

#endif // SSMT_MEMORY_HIERARCHY_HH
