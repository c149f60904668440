#include "sim/table_pool.hh"

#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define SSMT_TABLE_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SSMT_TABLE_POOL_ASAN 1
#endif
#endif

#ifdef SSMT_TABLE_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace ssmt
{
namespace sim
{

namespace
{

void
poison([[maybe_unused]] void *block, [[maybe_unused]] size_t bytes)
{
#ifdef SSMT_TABLE_POOL_ASAN
    ASAN_POISON_MEMORY_REGION(block, bytes);
#endif
}

void
unpoison([[maybe_unused]] void *block, [[maybe_unused]] size_t bytes)
{
#ifdef SSMT_TABLE_POOL_ASAN
    ASAN_UNPOISON_MEMORY_REGION(block, bytes);
#endif
}

/** The blocks parked on one thread, by exact byte size. A core asks
 *  for a few dozen distinct sizes, so a linear scan finds a bucket. */
struct Pool
{
    struct Bucket
    {
        size_t bytes;
        std::vector<void *> blocks;
    };

    std::vector<Bucket> buckets;
    size_t parked = 0;

    Pool() = default;
    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    ~Pool()
    {
        for (Bucket &bucket : buckets) {
            for (void *block : bucket.blocks) {
                unpoison(block, bucket.bytes);
                ::operator delete(block, bucket.bytes);
            }
        }
    }

    Bucket *
    find(size_t bytes)
    {
        for (Bucket &bucket : buckets)
            if (bucket.bytes == bytes)
                return &bucket;
        return nullptr;
    }
};

/** Open RecycleTables scopes on this thread. */
thread_local unsigned depth = 0;
/** The thread's pool while a scope is open, else null: outside a
 *  scope nothing can be parked. */
thread_local Pool *pool = nullptr;

} // namespace

void *
takeTableBlock(size_t bytes)
{
    if (Pool *p = pool) {
        Pool::Bucket *bucket = p->find(bytes);
        if (bucket && !bucket->blocks.empty()) {
            void *block = bucket->blocks.back();
            bucket->blocks.pop_back();
            p->parked -= bytes;
            unpoison(block, bytes);
            return block;
        }
    }
    return ::operator new(bytes);
}

void
giveTableBlock(void *block, size_t bytes) noexcept
{
    if (!block)
        return;
    Pool *p = pool;
    if (p && p->parked + bytes <= kParkedTableBytesCap) {
        try {
            Pool::Bucket *bucket = p->find(bytes);
            if (!bucket) {
                p->buckets.push_back(Pool::Bucket{bytes, {}});
                bucket = &p->buckets.back();
            }
            bucket->blocks.push_back(block);
            p->parked += bytes;
            poison(block, bytes);
            return;
        } catch (const std::bad_alloc &) {
            // No room to record it: release it instead.
        }
    }
    ::operator delete(block, bytes);
}

size_t
parkedTableBytes()
{
    return pool ? pool->parked : 0;
}

RecycleTables::RecycleTables() noexcept
{
    // Recycling only saves work: without memory for a pool, the scope
    // parks nothing.
    if (depth++ == 0)
        pool = new (std::nothrow) Pool;
}

RecycleTables::~RecycleTables()
{
    if (--depth == 0) {
        delete pool;
        pool = nullptr;
    }
}

} // namespace sim
} // namespace ssmt
