#include "isa/memory_image.hh"


namespace ssmt
{
namespace isa
{

MemoryImage::Page *
MemoryImage::pageFor(uint64_t addr, bool create) const
{
    uint64_t page_num = addr / kPageBytes;
    if (const std::unique_ptr<Page> *slot = pages_.find(page_num)) {
        lastPageNum_ = page_num;
        lastPage_ = slot->get();
        return lastPage_;
    }
    if (!create)
        return nullptr;
    auto page = std::make_unique<Page>();
    Page *raw = page.get();
    pages_.insert(page_num, std::move(page));
    lastPageNum_ = page_num;
    lastPage_ = raw;
    return raw;
}

} // namespace isa
} // namespace ssmt

