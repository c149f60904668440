#include "memory/cache.hh"

#include "sim/logging.hh"

namespace ssmt
{
namespace memory
{

namespace
{

bool
isPow2(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(const std::string &name, uint64_t size_bytes,
             uint32_t assoc, uint32_t line_bytes)
    : name_(name), assoc_(assoc), lineBytes_(line_bytes)
{
    SSMT_ASSERT(isPow2(size_bytes) && isPow2(line_bytes) && assoc > 0,
                "cache geometry must be power-of-two: " + name);
    SSMT_ASSERT(size_bytes >= static_cast<uint64_t>(assoc) * line_bytes,
                "cache too small for its associativity: " + name);
    numSets_ = size_bytes / (static_cast<uint64_t>(assoc) * line_bytes);
    SSMT_ASSERT(isPow2(numSets_),
                "cache set count must be power-of-two: " + name);
    sets_.resize(numSets_ * assoc_);
    tags_.assign(sets_.size(), ~0ull);
    lineShift_ = 0;
    while ((1ull << lineShift_) < line_bytes)
        lineShift_++;
}

bool
Cache::probe(uint64_t addr) const
{
    uint64_t line = addr >> lineShift_;
    uint64_t set = line & (numSets_ - 1);
    const Line *base = &sets_[set * assoc_];
    for (uint32_t way = 0; way < assoc_; way++)
        if (base[way].valid && base[way].tag == line)
            return true;
    return false;
}

void
Cache::fill(uint64_t addr)
{
    uint64_t line = addr >> lineShift_;
    uint64_t set = line & (numSets_ - 1);
    fillLine(set, line);
}

void
Cache::fillLine(uint64_t set, uint64_t tag)
{
    Line *base = &sets_[set * assoc_];
    // Already present? Just touch it.
    for (uint32_t way = 0; way < assoc_; way++) {
        if (base[way].valid && base[way].tag == tag) {
            base[way].lastUse = ++stamp_;
            return;
        }
    }
    // Pick invalid way, else true-LRU victim.
    Line *victim = &base[0];
    for (uint32_t way = 0; way < assoc_; way++) {
        if (!base[way].valid) {
            victim = &base[way];
            break;
        }
        if (base[way].lastUse < victim->lastUse)
            victim = &base[way];
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = ++stamp_;
    tags_[static_cast<size_t>(victim - sets_.data())] = tag;
}

void
Cache::invalidate(uint64_t addr)
{
    uint64_t line = addr >> lineShift_;
    uint64_t set = line & (numSets_ - 1);
    Line *base = &sets_[set * assoc_];
    for (uint32_t way = 0; way < assoc_; way++) {
        if (base[way].valid && base[way].tag == line) {
            base[way].valid = false;
            tags_[set * assoc_ + way] = ~0ull;
        }
    }
}

} // namespace memory
} // namespace ssmt

