#include "memory/cache.hh"

#include "sim/snapshot.hh"

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

void
Cache::save(sim::SnapshotWriter &w) const
{
    std::vector<uint64_t> valid, tag, last_use;
    valid.reserve(sets_.size());
    for (const Line &line : sets_) {
        valid.push_back(line.valid);
        tag.push_back(line.tag);
        last_use.push_back(line.lastUse);
    }
    w.u64Array("valid", valid);
    w.u64Array("tag", tag);
    w.u64Array("lastUse", last_use);
    w.u64("stamp", stamp_);
    w.u64("hits", hits_);
    w.u64("misses", misses_);
}

void
Cache::restore(sim::SnapshotReader &r)
{
    std::vector<uint64_t> valid = r.u64Array("valid");
    std::vector<uint64_t> tag = r.u64Array("tag");
    std::vector<uint64_t> last_use = r.u64Array("lastUse");
    r.requireSize("valid", valid.size(), sets_.size());
    r.requireSize("tag", tag.size(), sets_.size());
    r.requireSize("lastUse", last_use.size(), sets_.size());
    for (size_t i = 0; i < sets_.size(); i++) {
        sets_[i].valid = valid[i] != 0;
        sets_[i].tag = tag[i];
        sets_[i].lastUse = last_use[i];
        tags_[i] = sets_[i].valid ? sets_[i].tag : ~0ull;
    }
    stamp_ = r.u64("stamp");
    hits_ = r.u64("hits");
    misses_ = r.u64("misses");
}

static_assert(sim::SnapshotterLike<Cache>);

} // namespace memory
} // namespace ssmt

