/**
 * @file
 * Unit tests for the sparse MemoryImage.
 */

#include <gtest/gtest.h>

#include "isa/memory_image.hh"
#include "workloads/workloads.hh"

namespace
{

using ssmt::isa::MemoryImage;

TEST(MemoryImageTest, UntouchedMemoryReadsZero)
{
    MemoryImage mem;
    EXPECT_EQ(mem.load(0), 0u);
    EXPECT_EQ(mem.load(0xdeadbeef00ull), 0u);
    EXPECT_EQ(mem.numPages(), 0u);
}

TEST(MemoryImageTest, StoreLoadRoundTrip)
{
    MemoryImage mem;
    mem.store(0x1000, 42);
    EXPECT_EQ(mem.load(0x1000), 42u);
}

TEST(MemoryImageTest, UnalignedAddressHitsContainingWord)
{
    MemoryImage mem;
    mem.store(0x1000, 42);
    EXPECT_EQ(mem.load(0x1003), 42u);
    EXPECT_EQ(mem.load(0x1007), 42u);
    EXPECT_EQ(mem.load(0x1008), 0u);
}

TEST(MemoryImageTest, PagesAllocatedLazily)
{
    MemoryImage mem;
    mem.store(0, 1);
    EXPECT_EQ(mem.numPages(), 1u);
    mem.store(MemoryImage::kPageBytes - 8, 2);
    EXPECT_EQ(mem.numPages(), 1u);
    mem.store(MemoryImage::kPageBytes, 3);
    EXPECT_EQ(mem.numPages(), 2u);
    mem.store(1ull << 40, 4);
    EXPECT_EQ(mem.numPages(), 3u);
    EXPECT_EQ(mem.load(1ull << 40), 4u);
}

TEST(MemoryImageTest, ReadDoesNotMaterializePages)
{
    MemoryImage mem;
    for (uint64_t addr = 0; addr < 10 * MemoryImage::kPageBytes;
         addr += MemoryImage::kPageBytes) {
        (void)mem.load(addr);
    }
    EXPECT_EQ(mem.numPages(), 0u);
}

/** Property: random store/load sequences behave like a map. */
TEST(MemoryImageTest, RandomisedAgainstReferenceMap)
{
    MemoryImage mem;
    std::unordered_map<uint64_t, uint64_t> ref;
    ssmt::workloads::Rng rng(99);
    for (int i = 0; i < 5000; i++) {
        uint64_t addr = (rng.nextBelow(1 << 20)) & ~7ull;
        if (rng.chance(60)) {
            uint64_t value = rng.next();
            mem.store(addr, value);
            ref[addr] = value;
        } else {
            auto it = ref.find(addr);
            uint64_t expect = it == ref.end() ? 0 : it->second;
            ASSERT_EQ(mem.load(addr), expect) << "addr " << addr;
        }
    }
}

} // namespace
