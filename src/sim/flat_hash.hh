/**
 * @file
 * Open-addressing flat hash containers for the per-cycle hot path.
 *
 * The cycle loop used to key its bookkeeping off std::unordered_map
 * (SsmtCore's in-flight branch map and throttle feedback, the
 * MicroRAM's routine store and spawn index). Node-based maps cost an
 * allocation per insert and a pointer chase per probe — both painful
 * at once-per-instruction rates. These tables store slots inline in
 * one contiguous array, probe linearly from a multiplicative hash of
 * the 64-bit key (the PredictionCache's set mix, PR 1's template for
 * this change), and erase by backward shifting so no tombstones
 * accumulate: steady-state operation allocates nothing.
 *
 * Deliberate non-goals, so the simulator stays deterministic:
 *  - iteration order is unspecified (like unordered_map); a caller
 *    whose result depends on the order sorts the keys first,
 *  - keys are uint64_t only (Seq_Nums, PathIds, pcs — every hot map
 *    in the machine), so there is no hasher policy to get wrong,
 *  - values may be non-trivial (shared_ptr, vector); they are moved
 *    during growth and backward-shift deletion.
 *
 * Capacity is a power of two and grows at 7/8 load; erase never
 * shrinks. reserve() up front (the core sizes tables from
 * MachineConfig bounds) and the table never rehashes mid-run.
 */

#ifndef SSMT_SIM_FLAT_HASH_HH
#define SSMT_SIM_FLAT_HASH_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace ssmt
{
namespace sim
{

/** The PredictionCache key mix (splitmix-style finalizer): cheap,
 *  and spreads sequential Seq_Nums across the table. */
inline uint64_t
flatHashMix(uint64_t key)
{
    uint64_t h = key * 0x9e3779b97f4a7c15ull;
    h ^= h >> 32;
    h *= 0xc2b2ae3d27d4eb4full;
    h ^= h >> 29;
    return h;
}

/**
 * Open-addressing uint64_t -> V map with linear probing and
 * backward-shift deletion.
 */
template <typename V>
class FlatMap
{
  public:
    FlatMap() = default;

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    size_t capacity() const { return slots_.size(); }

    /** Grow so @p n entries fit without rehashing. */
    void
    reserve(size_t n)
    {
        size_t needed = kMinCapacity;
        // Keep load below 7/8 at n entries.
        while (needed - needed / 8 < n + 1)
            needed <<= 1;
        if (needed > slots_.size())
            rehash(needed);
    }

    V *
    find(uint64_t key)
    {
        if (slots_.empty())
            return nullptr;
        for (size_t i = home(key);; i = next(i)) {
            Slot &slot = slots_[i];
            if (!slot.used)
                return nullptr;
            if (slot.key == key)
                return &slot.value;
        }
    }

    const V *
    find(uint64_t key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    bool contains(uint64_t key) const { return find(key) != nullptr; }

    /** Value for @p key, default-constructing a missing entry. */
    V &
    operator[](uint64_t key)
    {
        maybeGrow();
        for (size_t i = home(key);; i = next(i)) {
            Slot &slot = slots_[i];
            if (!slot.used) {
                slot.used = true;
                slot.key = key;
                slot.value = V();
                size_++;
                return slot.value;
            }
            if (slot.key == key)
                return slot.value;
        }
    }

    /** Insert (or overwrite) @p key -> @p value. */
    void
    insert(uint64_t key, V value)
    {
        (*this)[key] = std::move(value);
    }

    /** @return true when an entry was removed. */
    bool
    erase(uint64_t key)
    {
        if (slots_.empty())
            return false;
        size_t i = home(key);
        for (;; i = next(i)) {
            if (!slots_[i].used)
                return false;
            if (slots_[i].key == key)
                break;
        }
        eraseAt(i);
        return true;
    }

    /** Remove @p key, moving its value into @p out first: one probe
     *  where a find() + erase() pair would pay two.
     *  @return true when an entry was removed. */
    bool
    take(uint64_t key, V &out)
    {
        if (slots_.empty())
            return false;
        size_t i = home(key);
        for (;; i = next(i)) {
            if (!slots_[i].used)
                return false;
            if (slots_[i].key == key)
                break;
        }
        out = std::move(slots_[i].value);
        eraseAt(i);
        return true;
    }

    /** Visit every (key, value) pair in unspecified order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &slot : slots_)
            if (slot.used)
                fn(slot.key, slot.value);
    }

  private:
    struct Slot
    {
        uint64_t key = 0;
        V value{};
        bool used = false;
    };

    static constexpr size_t kMinCapacity = 16;

    std::vector<Slot> slots_;
    size_t size_ = 0;

    size_t mask() const { return slots_.size() - 1; }
    size_t home(uint64_t key) const
    {
        return static_cast<size_t>(flatHashMix(key)) & mask();
    }
    size_t next(size_t i) const { return (i + 1) & mask(); }

    /** Vacate slot @p i by backward-shift deletion: pull every
     *  displaced follower of the probe chain one slot back, so
     *  lookups never need tombstones. */
    void
    eraseAt(size_t i)
    {
        size_t hole = i;
        for (size_t j = next(hole);; j = next(j)) {
            Slot &cand = slots_[j];
            if (!cand.used)
                break;
            size_t ideal = home(cand.key);
            // cand may move into the hole iff its ideal slot does
            // not lie strictly between hole (exclusive) and j
            // (inclusive) in ring order.
            size_t dist_hole = (j - hole) & mask();
            size_t dist_ideal = (j - ideal) & mask();
            if (dist_ideal >= dist_hole) {
                slots_[hole].key = cand.key;
                slots_[hole].value = std::move(cand.value);
                hole = j;
            }
        }
        slots_[hole].used = false;
        slots_[hole].value = V();
        size_--;
    }

    void
    maybeGrow()
    {
        if (slots_.empty()) {
            rehash(kMinCapacity);
            return;
        }
        if (size_ + 1 > slots_.size() - slots_.size() / 8)
            rehash(slots_.size() * 2);
    }

    void
    rehash(size_t new_capacity)
    {
        SSMT_ASSERT((new_capacity & (new_capacity - 1)) == 0,
                    "flat table capacity must be a power of two");
        std::vector<Slot> old = std::move(slots_);
        // Default-insert (not copy-fill) so move-only values work.
        slots_ = std::vector<Slot>(new_capacity);
        size_ = 0;
        for (Slot &slot : old) {
            if (slot.used)
                insert(slot.key, std::move(slot.value));
        }
    }
};

/** Open-addressing uint64_t set with the same organization. */
class FlatSet
{
  public:
    size_t size() const { return map_.size(); }
    bool empty() const { return map_.empty(); }
    void reserve(size_t n) { map_.reserve(n); }
    bool contains(uint64_t key) const { return map_.contains(key); }
    void insert(uint64_t key) { map_[key] = Empty{}; }
    bool erase(uint64_t key) { return map_.erase(key); }

    template <typename It>
    void
    insert(It first, It last)
    {
        for (; first != last; ++first)
            insert(*first);
    }

  private:
    struct Empty
    {
    };
    FlatMap<Empty> map_;
};

/**
 * Fixed-capacity FIFO ring over a flat buffer: the reorder-buffer
 * replacement for std::deque, whose page allocation/deallocation
 * showed up in the cycle-loop profile. The buffer is rounded up to a
 * power of two once (resetCapacity) and never reallocates; push past
 * the stated capacity asserts — the window-occupancy check upstream
 * makes that a simulator bug, not a resize request.
 */
template <typename T>
class FlatRing
{
  public:
    FlatRing() = default;

    /** Size the buffer for @p capacity entries and clear. */
    void
    resetCapacity(size_t capacity)
    {
        SSMT_ASSERT(capacity > 0, "flat ring needs a capacity");
        size_t rounded = 1;
        while (rounded < capacity)
            rounded <<= 1;
        buf_.assign(rounded, T{});
        capacity_ = capacity;
        head_ = 0;
        size_ = 0;
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    size_t capacity() const { return capacity_; }

    void
    push_back(const T &value)
    {
        SSMT_ASSERT(size_ < capacity_, "flat ring overflow");
        buf_[(head_ + size_) & mask()] = value;
        size_++;
    }

    /** Append and return the slot for in-place construction. The
     *  slot holds a stale element from an earlier lap of the ring:
     *  the caller must assign every field it will later read. */
    T &
    emplace_back()
    {
        SSMT_ASSERT(size_ < capacity_, "flat ring overflow");
        T &slot = buf_[(head_ + size_) & mask()];
        size_++;
        return slot;
    }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }

    void
    pop_front()
    {
        SSMT_ASSERT(size_ > 0, "pop from an empty flat ring");
        head_ = (head_ + 1) & mask();
        size_--;
    }

    /** Entry @p i counting from the front (0 = oldest). */
    const T &
    at(size_t i) const
    {
        SSMT_ASSERT(i < size_, "flat ring index out of range");
        return buf_[(head_ + i) & mask()];
    }

  private:
    std::vector<T> buf_;
    size_t capacity_ = 0;
    size_t head_ = 0;
    size_t size_ = 0;

    size_t mask() const { return buf_.size() - 1; }
};

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_FLAT_HASH_HH

