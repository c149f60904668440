/**
 * @file
 * Shared helper for the CompletionHeap tests: pop the heap through
 * the calls the core makes.
 */

#ifndef SSMT_TESTS_HEAP_POP_HH
#define SSMT_TESTS_HEAP_POP_HH

#include <cstdint>

#include "sim/event_queue.hh"

namespace ssmt
{
namespace test
{

/** Pop the earliest event due at @p now into @p out the way the core
 *  does: peekReady, copy the payload, popFront. @return false when
 *  nothing is due. */
template <typename T>
bool
popReady(sim::CompletionHeap<T> &heap, uint64_t now, T &out)
{
    const T *e = heap.peekReady(now);
    if (!e)
        return false;
    out = *e;
    heap.popFront();
    return true;
}

} // namespace test
} // namespace ssmt

#endif // SSMT_TESTS_HEAP_POP_HH
