/**
 * @file
 * Unit and property tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include "memory/cache.hh"
#include "workloads/workloads.hh"

namespace
{

using ssmt::memory::Cache;

TEST(CacheTest, ColdMissThenHit)
{
    Cache c("t", 1024, 2, 64);
    EXPECT_FALSE(c.access(0x100));
    EXPECT_TRUE(c.access(0x100));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(CacheTest, SameLineSharesOneEntry)
{
    Cache c("t", 1024, 2, 64);
    c.access(0x100);
    EXPECT_TRUE(c.access(0x13f));   // same 64B line
    EXPECT_FALSE(c.access(0x140));  // next line
}

TEST(CacheTest, NoAllocateOnMissLeavesLineAbsent)
{
    Cache c("t", 1024, 2, 64);
    EXPECT_FALSE(c.access(0x100, false));
    EXPECT_FALSE(c.access(0x100, false));
    EXPECT_EQ(c.misses(), 2u);
}

TEST(CacheTest, LruEvictionOrder)
{
    // 2-way, 64B lines, 2 sets: set stride is 128.
    Cache c("t", 256, 2, 64);
    uint64_t set0_a = 0 * 128;
    uint64_t set0_b = 1 * 128 + 0;  // wait: compute carefully below
    (void)set0_b;
    // Lines mapping to set 0: line numbers 0, 2, 4 -> addrs 0, 128,
    // 256.
    c.access(0);
    c.access(128);
    c.access(0);            // touch 0: now 128 is LRU
    c.access(256);          // evicts 128
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(128));
    EXPECT_TRUE(c.probe(256));
    (void)set0_a;
}

TEST(CacheTest, InvalidateRemovesLine)
{
    Cache c("t", 1024, 2, 64);
    c.access(0x200);
    EXPECT_TRUE(c.probe(0x200));
    c.invalidate(0x200);
    EXPECT_FALSE(c.probe(0x200));
}

TEST(CacheTest, FillWithoutAccounting)
{
    Cache c("t", 1024, 2, 64);
    c.fill(0x300);
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_TRUE(c.probe(0x300));
}

TEST(CacheDeathTest, NonPowerOfTwoGeometryPanics)
{
    EXPECT_DEATH(Cache("bad", 1000, 2, 64), "power-of-two");
}

/** Property sweep: a cache never holds more distinct lines than its
 *  capacity, and a working set within one set's capacity never
 *  misses after warm-up. */
struct Geometry
{
    uint64_t size;
    uint32_t assoc;
    uint32_t line;
};

class CacheGeometry : public testing::TestWithParam<Geometry>
{
};

TEST_P(CacheGeometry, WorkingSetWithinAssocAlwaysHitsWarm)
{
    const Geometry &g = GetParam();
    Cache c("t", g.size, g.assoc, g.line);
    uint64_t num_sets = c.numSets();
    // Pick `assoc` addresses all mapping to set 0.
    std::vector<uint64_t> addrs;
    for (uint32_t i = 0; i < g.assoc; i++)
        addrs.push_back(static_cast<uint64_t>(i) * num_sets * g.line);
    for (uint64_t a : addrs)
        c.access(a);
    for (int round = 0; round < 3; round++)
        for (uint64_t a : addrs)
            EXPECT_TRUE(c.access(a));
}

TEST_P(CacheGeometry, ConflictSetOverAssocThrashes)
{
    const Geometry &g = GetParam();
    Cache c("t", g.size, g.assoc, g.line);
    uint64_t num_sets = c.numSets();
    // assoc+1 addresses in one set, accessed round-robin: with true
    // LRU every access misses after warm-up.
    std::vector<uint64_t> addrs;
    for (uint32_t i = 0; i < g.assoc + 1; i++)
        addrs.push_back(static_cast<uint64_t>(i) * num_sets * g.line);
    for (uint64_t a : addrs)
        c.access(a);
    for (int round = 0; round < 3; round++)
        for (uint64_t a : addrs)
            EXPECT_FALSE(c.access(a));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    testing::Values(Geometry{1024, 1, 32}, Geometry{1024, 2, 64},
                    Geometry{4096, 4, 64}, Geometry{64 * 1024, 2, 64},
                    Geometry{64 * 1024, 4, 64},
                    Geometry{1024 * 1024, 8, 64}));

/** Property: hit rate of a random stream is monotone in capacity. */
TEST(CacheTest, HitRateMonotoneInCapacity)
{
    ssmt::workloads::Rng rng(7);
    std::vector<uint64_t> stream;
    for (int i = 0; i < 20000; i++)
        stream.push_back(rng.nextBelow(1 << 16) & ~7ull);
    double prev_rate = -1.0;
    for (uint64_t size : {4 * 1024, 16 * 1024, 64 * 1024}) {
        Cache c("t", size, 4, 64);
        for (uint64_t a : stream)
            c.access(a);
        double rate = static_cast<double>(c.hits()) / c.accesses();
        EXPECT_GE(rate, prev_rate);
        prev_rate = rate;
    }
}

} // namespace
