/**
 * @file
 * A slab-backed indexed min-heap for cycle-stamped simulation events.
 *
 * The micro-op completion stream is the hottest event traffic in the
 * core: one push and one pop per dispatched op, millions per run.
 * The original implementation kept the full 48-byte completion
 * records in a push_heap/pop_heap vector, so every sift moved whole
 * payloads. This heap sifts 16-byte {cycle, slot} keys instead and
 * parks the payloads in a slab recycled through a free list — the
 * allocator is never touched in steady state and each heap level
 * costs one small move.
 *
 * Ordering contract: the comparator reads the cycle alone, exactly
 * like the payload heap it replaces, and std::push_heap/pop_heap
 * swap purely on comparator outcomes — so the pop permutation,
 * including the order of same-cycle ties, is bit-for-bit the one the
 * old heap produced. Golden stats depend on that tie order; do not
 * "improve" the comparator. Only that pop order is architectural:
 * nothing persists or walks the backing array, so a replacement
 * queue has to reproduce the pop sequence and nothing else.
 */

#ifndef SSMT_SIM_EVENT_QUEUE_HH
#define SSMT_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

namespace ssmt
{
namespace sim
{

/** T must expose a public `uint64_t cycle` member. */
template <typename T>
class CompletionHeap
{
  public:
    void
    reserve(size_t n)
    {
        heap_.reserve(n);
        slab_.reserve(n);
        free_.reserve(n);
    }

    size_t size() const { return heap_.size(); }
    bool empty() const { return heap_.empty(); }

    /** Earliest pending cycle; valid only when !empty(). */
    uint64_t nextCycle() const { return heap_.front().cycle; }

    void
    push(const T &e)
    {
        uint32_t slot;
        if (!free_.empty()) {
            slot = free_.back();
            free_.pop_back();
            slab_[slot] = e;
        } else {
            slot = static_cast<uint32_t>(slab_.size());
            slab_.push_back(e);
        }
        heap_.push_back({e.cycle, slot});
        std::push_heap(heap_.begin(), heap_.end(), LaterCycle{});
    }

    /** Payload of the earliest event when its cycle is at or before
     *  @p now, nullptr otherwise. Valid until the next push or pop:
     *  pair with popFront() to consume events in place, without a
     *  payload copy. */
    const T *
    peekReady(uint64_t now) const
    {
        if (heap_.empty() || heap_.front().cycle > now)
            return nullptr;
        return &slab_[heap_.front().slot];
    }

    /** Drop the earliest event (the one peekReady() exposed). */
    void
    popFront()
    {
        free_.push_back(heap_.front().slot);
        std::pop_heap(heap_.begin(), heap_.end(), LaterCycle{});
        heap_.pop_back();
    }

  private:
    struct Key
    {
        uint64_t cycle;
        uint32_t slot;
    };

    /** Min-heap via the inverted comparator, matching the payload
     *  heap's std::greater on a cycle-only operator>. A stateless
     *  functor rather than a function (std::push_heap takes the
     *  comparator by value; a function decays to a pointer and the
     *  compiler emits a real call per sift compare). */
    struct LaterCycle
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            return a.cycle > b.cycle;
        }
    };

    std::vector<Key> heap_;
    std::vector<T> slab_;
    std::vector<uint32_t> free_;    ///< recycled slab slots
};

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_EVENT_QUEUE_HH

