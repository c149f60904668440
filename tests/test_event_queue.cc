/**
 * @file
 * Dedicated CompletionHeap unit tests: the now-boundary on
 * peekReady, same-cycle tie stability as a pure function of push
 * history, and bounded occupancy under steady-state churn. Every pop
 * goes through peekReady/popFront, the calls the core makes.
 * (test_flat_map.cc holds the reference-model sweep against the
 * payload heap this replaced; these tests pin the contract edges
 * directly.)
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "heap_pop.hh"
#include "sim/event_queue.hh"

namespace
{

using namespace ssmt;
using test::popReady;

struct Event
{
    uint64_t cycle = 0;
    uint32_t tag = 0;
};

/** Drain everything ready at @p now, in pop order. */
std::vector<Event>
drain(sim::CompletionHeap<Event> &heap, uint64_t now)
{
    std::vector<Event> out;
    Event e;
    while (popReady(heap, now, e))
        out.push_back(e);
    return out;
}

TEST(CompletionHeapTest, PopReadyRespectsTheNowBoundary)
{
    sim::CompletionHeap<Event> heap;
    heap.push({10, 1});
    heap.push({11, 2});

    Event e;
    EXPECT_FALSE(popReady(heap, 9, e));     // nothing due yet
    EXPECT_EQ(heap.size(), 2u);

    ASSERT_TRUE(popReady(heap, 10, e));     // due exactly at now
    EXPECT_EQ(e.tag, 1u);
    EXPECT_FALSE(popReady(heap, 10, e));    // next is still future
    EXPECT_EQ(heap.nextCycle(), 11u);
}

TEST(CompletionHeapTest, TieOrderIsAFunctionOfPushHistoryAlone)
{
    // Two heaps fed the same push/pop history must pop same-cycle
    // ties identically — golden stats depend on that order, and it
    // must not depend on slab slot numbering (which differs once the
    // free list has churned).
    sim::CompletionHeap<Event> fresh;
    sim::CompletionHeap<Event> churned;
    // Pre-churn one heap so its free list is non-empty and slots are
    // handed out in recycled order.
    for (uint32_t i = 0; i < 32; i++)
        churned.push({i, 1000 + i});
    Event sink;
    while (popReady(churned, 31, sink)) {
    }

    std::mt19937 rng(21);
    for (uint32_t i = 0; i < 300; i++) {
        Event e{rng() % 8, i};   // heavy ties across 8 cycles
        fresh.push(e);
        churned.push(e);
    }
    std::vector<Event> from_fresh = drain(fresh, 8);
    std::vector<Event> from_churned = drain(churned, 8);
    ASSERT_EQ(from_fresh.size(), from_churned.size());
    for (size_t i = 0; i < from_fresh.size(); i++)
        EXPECT_EQ(from_fresh[i].tag, from_churned[i].tag) << i;
}

TEST(CompletionHeapTest, SteadyStateChurnRecyclesSlabSlots)
{
    // Interleaved push/pop at bounded occupancy: the pending count
    // stays bounded while the slab recycles its slots through the
    // free list, and every recycled slot hands back the payload that
    // was pushed into it.
    sim::CompletionHeap<Event> heap;
    std::vector<uint64_t> pushed_cycle;
    uint64_t now = 0;
    std::mt19937 rng(3);
    for (int round = 0; round < 1000; round++) {
        pushed_cycle.push_back(now + 1 + rng() % 4);
        heap.push({pushed_cycle.back(), static_cast<uint32_t>(round)});
        if (heap.size() > 8) {
            Event e;
            ++now;
            while (popReady(heap, now, e)) {
                ASSERT_LT(e.tag, pushed_cycle.size());
                EXPECT_EQ(e.cycle, pushed_cycle[e.tag]);
                EXPECT_LE(e.cycle, now);
            }
        }
        EXPECT_LE(heap.size(), 16u);
    }
}

} // namespace
