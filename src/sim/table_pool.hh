/**
 * @file
 * Table storage that a batch hands from one cell's core to the next.
 *
 * Every cell builds the paper's Table 3 machine from scratch: a
 * 64K-entry target cache, 128K-entry hybrid components, an 8K-entry
 * Path Cache and a 1 MB L2 make 2.2 MB of tables per core. Fresh
 * memory for them is mapped and page-faulted in on first touch, and
 * the core's destruction hands it back to the system, so a short
 * cell spends a quarter of its host time building its core. The
 * model's large fixed-geometry arrays therefore take their memory
 * through TableAllocator (TableVector), and isa::MemoryImage's pages
 * through the same two entry points.
 *
 * While a RecycleTables scope is open on a thread, a block freed on
 * that thread is parked there instead of released, and the next
 * request for exactly its byte size takes it back. A batch opens one
 * scope on every thread that runs its cells (BatchRunner::forEach and
 * the isolated worker loop), so the second and later cores a batch
 * thread builds map and fault no table memory. Outside any scope a
 * freed block is released at once, and the outermost scope releases
 * every parked block when it closes: nothing outlives its batch.
 *
 * Reuse never shows in a simulated result: every array
 * value-initialises its elements when it is constructed, from parked
 * memory as from fresh. The pool is per thread, so taking and
 * parking need no lock; a block freed on another thread than the one
 * that took it parks on the thread that freed it. Under ASan a parked
 * block is poisoned until it is handed out again, so a stale pointer
 * into a recycled table is still reported.
 */

#ifndef SSMT_SIM_TABLE_POOL_HH
#define SSMT_SIM_TABLE_POOL_HH

#include <cstddef>
#include <limits>
#include <new>
#include <vector>

namespace ssmt
{
namespace sim
{

/** The most bytes one thread keeps parked: one default core's 2.2 MB
 *  of tables plus mcf_2k's 4.6 MiB memory image, twice over. A freed
 *  block that would pass it is released. */
constexpr size_t kParkedTableBytesCap = size_t{16} << 20;

/** A block of @p bytes: a block parked on this thread of exactly that
 *  size when there is one, otherwise ::operator new. Out of line so
 *  the pool's thread-local code stays out of the cycle loop. */
void *takeTableBlock(size_t bytes);

/** Return @p block of @p bytes (from takeTableBlock): parked on this
 *  thread while a RecycleTables scope is open on it and the cap
 *  allows, otherwise released. */
void giveTableBlock(void *block, size_t bytes) noexcept;

/** Bytes parked on the calling thread. */
size_t parkedTableBytes();

/**
 * Park freed table blocks on this thread while the scope is open.
 * Scopes nest; the outermost releases every parked block when it
 * closes. Open one around a run of cells on one thread, never for a
 * thread's whole life: parked blocks count towards the process's
 * memory (and an isolated worker's RLIMIT_AS) until the scope closes.
 */
class RecycleTables
{
  public:
    RecycleTables() noexcept;
    ~RecycleTables();
    RecycleTables(const RecycleTables &) = delete;
    RecycleTables &operator=(const RecycleTables &) = delete;
};

/** Stateless allocator over takeTableBlock/giveTableBlock. */
template <typename T>
struct TableAllocator
{
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "table blocks come from the default operator new");

    using value_type = T;

    TableAllocator() = default;
    template <typename U>
    TableAllocator(const TableAllocator<U> &) noexcept
    {
    }

    T *
    allocate(size_t n)
    {
        if (n > std::numeric_limits<size_t>::max() / sizeof(T))
            throw std::bad_array_new_length();
        return static_cast<T *>(takeTableBlock(n * sizeof(T)));
    }

    void
    deallocate(T *p, size_t n) noexcept
    {
        giveTableBlock(p, n * sizeof(T));
    }

    template <typename U>
    bool
    operator==(const TableAllocator<U> &) const noexcept
    {
        return true;
    }
};

/** A model table's storage: a std::vector whose block recycles
 *  between the cells of a batch. */
template <typename T>
using TableVector = std::vector<T, TableAllocator<T>>;

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_TABLE_POOL_HH
