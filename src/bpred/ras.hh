/**
 * @file
 * 32-entry call/return stack (Table 3). Wraps on overflow like real
 * hardware rather than growing.
 *
 * Over/underflow semantics, pinned by test_ras_tc.cc:
 *
 *  - push past depth overwrites the *oldest* live entry (hardware
 *    wrap); the stack never reports more than depth entries.
 *  - pop on empty returns 0 and moves nothing — it must not walk
 *    topIdx_ backwards into stale slots, or a call/return-imbalanced
 *    region would resurrect long-dead return addresses.
 */

#ifndef SSMT_BPRED_RAS_HH
#define SSMT_BPRED_RAS_HH

#include <cstdint>
#include <vector>

namespace ssmt
{
namespace bpred
{

class Ras
{
  public:
    explicit Ras(uint32_t depth = 32);

    /** Push a return address at a call. Past depth, the oldest live
     *  entry is overwritten (hardware wrap). */
    void push(uint64_t return_pc);

    /** Pop the predicted return address at a return. Empty -> 0,
     *  with no pointer movement (no wrap into stale entries). */
    uint64_t pop();

    /** Peek without popping (for tests). */
    uint64_t top() const;

    uint32_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

  private:
    std::vector<uint64_t> stack_;
    uint32_t topIdx_ = 0;   ///< next slot to write
    uint32_t size_ = 0;     ///< live entries, capped at depth
};

} // namespace bpred
} // namespace ssmt

#endif // SSMT_BPRED_RAS_HH
