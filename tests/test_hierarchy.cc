/**
 * @file
 * Tests for the Table 3 L1I/L1D/L2/DRAM hierarchy latency model.
 */

#include <gtest/gtest.h>

#include "memory/hierarchy.hh"

namespace
{

using ssmt::memory::Hierarchy;
using ssmt::memory::HierarchyConfig;

TEST(HierarchyTest, ReadLatenciesByLevel)
{
    HierarchyConfig cfg;
    Hierarchy h(cfg);
    // Cold: DRAM.
    EXPECT_EQ(h.read(0x1000),
              cfg.l1Latency + cfg.l2Latency + cfg.dramLatency);
    // Now in L1.
    EXPECT_EQ(h.read(0x1000), cfg.l1Latency);
}

TEST(HierarchyTest, L2HitAfterL1Eviction)
{
    HierarchyConfig cfg;
    Hierarchy h(cfg);
    h.read(0x1000);
    // Thrash the L1 set containing 0x1000: L1D is 2-way with
    // 64KB/2/64B = 512 sets; stride = 512*64 = 32KB.
    h.read(0x1000 + 32 * 1024);
    h.read(0x1000 + 64 * 1024);
    // 0x1000 evicted from L1 but still in the 1MB L2.
    EXPECT_EQ(h.read(0x1000), cfg.l1Latency + cfg.l2Latency);
}

TEST(HierarchyTest, StoresInvalidateL1AndFillL2)
{
    HierarchyConfig cfg;
    Hierarchy h(cfg);
    h.read(0x2000);
    EXPECT_EQ(h.read(0x2000), cfg.l1Latency);
    h.write(0x2000);    // "sent directly to the L2, invalidated in L1"
    EXPECT_EQ(h.read(0x2000), cfg.l1Latency + cfg.l2Latency);
}

TEST(HierarchyTest, StoreToColdLineMakesL2Hit)
{
    HierarchyConfig cfg;
    Hierarchy h(cfg);
    h.write(0x3000);
    EXPECT_EQ(h.read(0x3000), cfg.l1Latency + cfg.l2Latency);
}

TEST(HierarchyTest, FetchUsesSeparateL1I)
{
    HierarchyConfig cfg;
    Hierarchy h(cfg);
    EXPECT_EQ(h.fetch(0x100),
              cfg.l1Latency + cfg.l2Latency + cfg.dramLatency);
    EXPECT_EQ(h.fetch(0x100), cfg.l1Latency);
    // A data read of the same line does not hit in the L1I path but
    // does hit the (unified) L2.
    EXPECT_EQ(h.read(0x100), cfg.l1Latency + cfg.l2Latency);
}

TEST(HierarchyTest, PrefetchEffect)
{
    // The microthread side-effect the paper highlights: a first
    // reader warms the caches for a later reader.
    HierarchyConfig cfg;
    Hierarchy h(cfg);
    int first = h.read(0x9000);
    int second = h.read(0x9000);
    EXPECT_GT(first, second);
    EXPECT_EQ(second, cfg.l1Latency);
}

TEST(HierarchyTest, CustomLatenciesRespected)
{
    HierarchyConfig cfg;
    cfg.l1Latency = 2;
    cfg.l2Latency = 10;
    cfg.dramLatency = 200;
    Hierarchy h(cfg);
    EXPECT_EQ(h.read(0), 212);
    EXPECT_EQ(h.read(0), 2);
}

} // namespace
