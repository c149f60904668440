/**
 * @file
 * Reference-model sweeps for the hot-path containers: FlatMap /
 * FlatSet against the std::unordered_* they replaced (including
 * erase's backward-shift deletion), FlatRing against std::deque,
 * and the slab-backed CompletionHeap against the payload
 * push_heap/pop_heap vector it replaced — the pop permutation,
 * including same-cycle ties, is architecturally visible through the
 * golden stats, so the equivalence here is exact order, not just
 * multiset equality.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "heap_pop.hh"
#include "sim/event_queue.hh"
#include "sim/flat_hash.hh"

namespace
{

using namespace ssmt;

// ---- FlatMap / FlatSet vs std reference ----

TEST(FlatMap, MatchesUnorderedMapUnderRandomChurn)
{
    sim::FlatMap<uint64_t> flat;
    std::unordered_map<uint64_t, uint64_t> ref;
    std::mt19937_64 rng(12345);

    // A small key universe forces long probe chains and exercises
    // the backward-shift on erase; the op count forces rehashes.
    for (int op = 0; op < 20000; op++) {
        uint64_t key = rng() % 512;
        switch (rng() % 3) {
          case 0: {
            uint64_t value = rng();
            flat[key] = value;
            ref[key] = value;
            break;
          }
          case 1:
            EXPECT_EQ(flat.erase(key), ref.erase(key) == 1);
            break;
          default: {
            const uint64_t *found = flat.find(key);
            auto it = ref.find(key);
            ASSERT_EQ(found != nullptr, it != ref.end());
            if (found)
                EXPECT_EQ(*found, it->second);
            break;
          }
        }
    }
    EXPECT_EQ(flat.size(), ref.size());
    for (const auto &[key, value] : ref) {
        const uint64_t *found = flat.find(key);
        ASSERT_NE(found, nullptr) << "missing key " << key;
        EXPECT_EQ(*found, value);
    }
    size_t visited = 0;
    flat.forEach([&](uint64_t key, const uint64_t &value) {
        visited++;
        auto it = ref.find(key);
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(value, it->second);
    });
    EXPECT_EQ(visited, ref.size());
}

TEST(FlatMap, BackwardShiftKeepsProbeChainsFindable)
{
    // Sequential keys in a small table collide into shared chains;
    // erasing every other key must leave the survivors reachable
    // (backward-shift deletion, no tombstones).
    sim::FlatMap<uint64_t> flat;
    flat.reserve(64);
    for (uint64_t key = 0; key < 64; key++)
        flat[key] = key * 10;
    for (uint64_t key = 0; key < 64; key += 2)
        EXPECT_TRUE(flat.erase(key));
    for (uint64_t key = 0; key < 64; key++) {
        const uint64_t *found = flat.find(key);
        if (key % 2 == 0) {
            EXPECT_EQ(found, nullptr);
        } else {
            ASSERT_NE(found, nullptr) << "lost key " << key;
            EXPECT_EQ(*found, key * 10);
        }
    }
    EXPECT_EQ(flat.size(), 32u);
}

TEST(FlatMap, ErasedSlotsAreReusedWithoutGrowth)
{
    // Backward-shift deletion leaves no tombstones, so steady-state
    // insert/erase churn at a fixed population must never grow the
    // table: the capacity settled after the initial fill is final.
    sim::FlatMap<uint64_t> flat;
    std::mt19937_64 rng(31337);
    for (uint64_t key = 0; key < 96; key++)
        flat[key] = key;
    size_t settled = flat.capacity();
    uint64_t next = 96;
    for (int op = 0; op < 50000; op++) {
        uint64_t victim = rng() % next;
        if (flat.erase(victim)) {
            flat[next] = next;
            next++;
        }
        ASSERT_EQ(flat.capacity(), settled)
            << "table grew at constant size, op " << op;
        ASSERT_EQ(flat.size(), 96u);
    }
}

TEST(FlatMap, GrowthAtHighLoadFactorKeepsEveryEntry)
{
    // No reserve(): every insert drives toward the 7/8 threshold so
    // the table repeatedly rehashes while nearly full. Every entry
    // and the load-factor bound must survive each doubling.
    sim::FlatMap<uint64_t> flat;
    for (uint64_t key = 0; key < 10000; key++) {
        flat[key] = key * 7 + 1;
        ASSERT_LE(flat.size(),
                  flat.capacity() - flat.capacity() / 8)
            << "load factor above 7/8 after key " << key;
    }
    EXPECT_EQ(flat.size(), 10000u);
    for (uint64_t key = 0; key < 10000; key++) {
        const uint64_t *found = flat.find(key);
        ASSERT_NE(found, nullptr) << "lost key " << key;
        EXPECT_EQ(*found, key * 7 + 1);
    }
}

TEST(FlatMap, IterationOrderIsAFunctionOfOperationHistory)
{
    // Callers that need an order sort the keys, so iteration order
    // is not part of any output — but determinism still matters: two
    // tables built by the same operation sequence must iterate
    // identically (the hash mix is a fixed function of the key, with
    // no per-process or per-platform seeding).
    auto build = [](uint64_t salt) {
        sim::FlatMap<uint64_t> flat;
        std::mt19937_64 rng(555);    // same stream for both builds
        for (int op = 0; op < 5000; op++) {
            uint64_t key = rng() % 1024;
            if (rng() % 3 == 0)
                flat.erase(key);
            else
                flat[key] = key + salt;
        }
        return flat;
    };
    sim::FlatMap<uint64_t> a = build(0);
    sim::FlatMap<uint64_t> b = build(0);
    std::vector<uint64_t> order_a, order_b;
    a.forEach([&](uint64_t key, const uint64_t &) {
        order_a.push_back(key);
    });
    b.forEach([&](uint64_t key, const uint64_t &) {
        order_b.push_back(key);
    });
    ASSERT_EQ(order_a.size(), order_b.size());
    EXPECT_EQ(order_a, order_b);
}

TEST(FlatMap, TakeFusesFindAndErase)
{
    sim::FlatMap<uint64_t> flat;
    for (uint64_t key = 0; key < 32; key++)
        flat[key] = key * 3;
    uint64_t out = ~0ull;
    EXPECT_FALSE(flat.take(99, out));
    EXPECT_EQ(out, ~0ull);
    ASSERT_TRUE(flat.take(7, out));
    EXPECT_EQ(out, 21u);
    EXPECT_EQ(flat.find(7), nullptr);
    EXPECT_EQ(flat.size(), 31u);
}

TEST(FlatSet, MatchesUnorderedSetUnderRandomChurn)
{
    sim::FlatSet flat;
    std::unordered_set<uint64_t> ref;
    std::mt19937_64 rng(99);
    for (int op = 0; op < 10000; op++) {
        uint64_t key = rng() % 256;
        if (rng() % 2) {
            flat.insert(key);
            ref.insert(key);
        } else {
            EXPECT_EQ(flat.erase(key), ref.erase(key) == 1);
        }
        if (op % 97 == 0)
            EXPECT_EQ(flat.contains(key), ref.count(key) == 1);
    }
    EXPECT_EQ(flat.size(), ref.size());
    for (uint64_t key : ref)
        EXPECT_TRUE(flat.contains(key));
}

// ---- FlatRing vs std::deque ----

TEST(FlatRing, MatchesDequeAcrossWrapArounds)
{
    sim::FlatRing<uint64_t> ring;
    ring.resetCapacity(24);     // rounds up to 32 internally
    std::deque<uint64_t> ref;
    std::mt19937_64 rng(7);
    uint64_t next = 0;
    for (int op = 0; op < 5000; op++) {
        bool push = ref.empty() ||
                    (ref.size() < 24 && rng() % 2 == 0);
        if (push) {
            ring.push_back(next);
            ref.push_back(next);
            next++;
        } else {
            EXPECT_EQ(ring.front(), ref.front());
            ring.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(ring.size(), ref.size());
        if (!ref.empty()) {
            EXPECT_EQ(ring.front(), ref.front());
            size_t probe = rng() % ref.size();
            EXPECT_EQ(ring.at(probe), ref[probe]);
        }
    }
}

TEST(FlatRing, EmplaceBackSlotOverwritesStaleLaps)
{
    struct Two
    {
        uint64_t a = 0;
        uint64_t b = 0;
    };
    sim::FlatRing<Two> ring;
    ring.resetCapacity(4);
    // Several laps so emplace_back hands back recycled slots.
    for (uint64_t lap = 0; lap < 5; lap++) {
        for (uint64_t i = 0; i < 4; i++) {
            Two &slot = ring.emplace_back();
            slot.a = lap * 4 + i;
            slot.b = ~slot.a;
        }
        for (uint64_t i = 0; i < 4; i++) {
            EXPECT_EQ(ring.front().a, lap * 4 + i);
            EXPECT_EQ(ring.front().b, ~(lap * 4 + i));
            ring.pop_front();
        }
    }
}

// ---- CompletionHeap vs the payload heap it replaced ----

struct Ev
{
    uint64_t cycle = 0;
    uint64_t tag = 0;

    // The comparator the old payload heap used: cycle only. Tag is
    // deliberately excluded — same-cycle tie order must come from
    // the heap algorithm, not the payload.
    bool operator>(const Ev &other) const
    {
        return cycle > other.cycle;
    }
};

/** The exact structure CompletionHeap replaced. */
struct PayloadHeap
{
    std::vector<Ev> v;

    void
    push(const Ev &e)
    {
        v.push_back(e);
        std::push_heap(v.begin(), v.end(), std::greater<Ev>{});
    }

    bool
    popReady(uint64_t now, Ev &out)
    {
        if (v.empty() || v.front().cycle > now)
            return false;
        out = v.front();
        std::pop_heap(v.begin(), v.end(), std::greater<Ev>{});
        v.pop_back();
        return true;
    }
};

TEST(CompletionHeap, PopPermutationMatchesPayloadHeapExactly)
{
    sim::CompletionHeap<Ev> heap;
    heap.reserve(64);
    PayloadHeap ref;
    std::mt19937_64 rng(4242);
    uint64_t now = 0;
    uint64_t tag = 0;
    for (int round = 0; round < 3000; round++) {
        // Narrow cycle range on purpose: ties are the hard case.
        int pushes = static_cast<int>(rng() % 4);
        for (int i = 0; i < pushes; i++) {
            Ev e{now + 1 + rng() % 6, tag++};
            heap.push(e);
            ref.push(e);
        }
        now++;
        Ev a, b;
        while (true) {
            bool got_a = test::popReady(heap, now, a);
            bool got_b = ref.popReady(now, b);
            ASSERT_EQ(got_a, got_b);
            if (!got_a)
                break;
            ASSERT_EQ(a.cycle, b.cycle);
            // Exact tie-order equivalence, not just cycle order.
            ASSERT_EQ(a.tag, b.tag);
        }
        ASSERT_EQ(heap.size(), ref.v.size());
        if (!ref.v.empty())
            ASSERT_EQ(heap.nextCycle(), ref.v.front().cycle);
    }
}

} // namespace
