/**
 * @file
 * The Post-Retirement Buffer (paper Section 4.2.2): a ring of the
 * last i (512) instructions to retire from the primary thread, with
 * their dependence information, used as the raw material for
 * microthread construction.
 *
 * Position convention: position 0 is the *oldest* buffered
 * instruction and position size()-1 the youngest (the just-retired
 * terminating branch when a build request fires).
 */

#ifndef SSMT_CORE_PRB_HH
#define SSMT_CORE_PRB_HH

#include <cstdint>
#include <vector>

#include "isa/inst.hh"

namespace ssmt
{
namespace core
{

/** One retired instruction with its dependence metadata. */
struct PrbEntry
{
    uint64_t seq = 0;           ///< dynamic sequence number
    uint64_t pc = 0;            ///< instruction index
    isa::Inst inst;
    uint64_t value = 0;         ///< register result, if any
    uint64_t memAddr = 0;       ///< effective address (load/store)
    bool taken = false;         ///< control flow: direction
    uint64_t target = 0;        ///< control flow: destination
    /** Sequence numbers of the producers of rs1/rs2 (0 = unknown or
     *  older than tracking). Computed during execution, stored here
     *  as the paper prescribes. */
    uint64_t srcSeq[2] = {0, 0};
    /** Value predictor was confident for this pc at retirement. */
    bool vpConfident = false;
    /** Address predictor was confident for this pc at retirement. */
    bool apConfident = false;
};

class Prb
{
  public:
    explicit Prb(uint32_t capacity = 512);

    /** Append a retired instruction, evicting the oldest if full.
     *  Header-inline: runs once per retired primary instruction. */
    void
    push(const PrbEntry &entry)
    {
        pushSlot() = entry;
    }

    /** Append and return the evicted slot for in-place filling —
     *  the per-retirement fast path skips the stack-local copy. The
     *  slot holds the evicted entry: the caller must assign every
     *  field. */
    PrbEntry &
    pushSlot()
    {
        PrbEntry &slot = ring_[head_];
        // Capacity is a runtime value, so wrap with a compare rather
        // than a modulo on this per-retirement path.
        head_++;
        if (head_ == ring_.size())
            head_ = 0;
        if (size_ < ring_.size())
            size_++;
        return slot;
    }

    /** Entries currently buffered. */
    uint32_t size() const { return size_; }

    uint32_t capacity() const
    {
        return static_cast<uint32_t>(ring_.size());
    }

    /** Entry at @p pos (0 = oldest, size()-1 = youngest). */
    const PrbEntry &at(uint32_t pos) const;

    /** Youngest entry; size() must be > 0. */
    const PrbEntry &youngest() const { return at(size_ - 1); }

  private:
    std::vector<PrbEntry> ring_;
    uint32_t head_ = 0;     ///< next slot to write
    uint32_t size_ = 0;
};

} // namespace core
} // namespace ssmt

#endif // SSMT_CORE_PRB_HH

