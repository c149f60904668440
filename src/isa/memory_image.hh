/**
 * @file
 * Sparse 64-bit data memory backing a running program.
 *
 * Memory is byte addressed but accessed in aligned 64-bit words,
 * which is all the ISA supports. Storage is allocated lazily in 4KB
 * pages so workloads can scatter heap, stack and table regions across
 * a large address space without cost.
 */

#ifndef SSMT_ISA_MEMORY_IMAGE_HH
#define SSMT_ISA_MEMORY_IMAGE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/flat_hash.hh"
#include "sim/table_pool.hh"

namespace ssmt
{
namespace isa
{

class MemoryImage
{
  public:
    static constexpr uint64_t kPageBytes = 4096;
    static constexpr uint64_t kWordsPerPage = kPageBytes / 8;

    MemoryImage() = default;

    // load/store sit under the interpreter (every modeled load plus
    // every microthread re-execution), so they live in the header
    // with a one-entry most-recently-used page in front of the page
    // table: loop working sets rarely leave a page between accesses.

    /** Read the aligned 64-bit word containing @p addr. */
    uint64_t
    load(uint64_t addr) const
    {
        uint64_t page_num = addr / kPageBytes;
        const Page *page = page_num == lastPageNum_
                               ? lastPage_
                               : pageFor(addr, false);
        if (!page)
            return 0;
        return page->words[(addr % kPageBytes) / 8];
    }

    /** Write the aligned 64-bit word containing @p addr. */
    void
    store(uint64_t addr, uint64_t value)
    {
        uint64_t page_num = addr / kPageBytes;
        Page *page = page_num == lastPageNum_ ? lastPage_
                                              : pageFor(addr, true);
        page->words[(addr % kPageBytes) / 8] = value;
    }

    /** Number of pages currently materialized (for tests). */
    size_t numPages() const { return pages_.size(); }

  private:
    struct Page
    {
        uint64_t words[kWordsPerPage] = {};

        // Pages recycle between a batch's cells with the model's
        // tables (sim/table_pool.hh).
        static void *
        operator new(size_t bytes)
        {
            return sim::takeTableBlock(bytes);
        }

        static void
        operator delete(void *page, size_t bytes) noexcept
        {
            sim::giveTableBlock(page, bytes);
        }
    };

    /** Page table: a flat open-addressing map, so the (frequent) MRU
     *  misses still resolve in a probe or two of one contiguous
     *  array instead of a node chase. */
    mutable sim::FlatMap<std::unique_ptr<Page>> pages_;
    /** One-entry MRU over pages_; both fields move together. A null
     *  lastPage_ with a matching lastPageNum_ never occurs: misses
     *  leave the pair untouched. */
    mutable uint64_t lastPageNum_ = ~0ull;
    mutable Page *lastPage_ = nullptr;

    Page *pageFor(uint64_t addr, bool create) const;
};

} // namespace isa
} // namespace ssmt

#endif // SSMT_ISA_MEMORY_IMAGE_HH

