/**
 * @file
 * ssmt-snapshot-v1: checkpoint/restore of the entire simulated
 * machine.
 *
 * Every stateful component exposes the same pair of methods —
 *
 *   void save(sim::SnapshotWriter &w) const;
 *   void restore(sim::SnapshotReader &r);
 *
 * — enforced by the SnapshotterLike concept (and, for the top-level
 * machine, the virtual Snapshotter interface). save() writes keyed
 * fields into the writer's currently-open object; the caller brackets
 * each component with beginObject(key)/endObject(), so components
 * nest without knowing where they live in the document. restore() is
 * the exact inverse, run against an instance freshly constructed
 * from the *same configuration*: geometry (table sizes, capacities)
 * is never serialized — only mutable state is.
 *
 * The encoding is a canonical JSON/binary hybrid reusing
 * sim/json_text for decode: integers only (signed values travel as
 * their two's-complement uint64_t bit pattern, so nothing ever
 * round-trips through a double), fixed field order, sorted key order
 * for unordered containers, and bulk memory as hex blobs of
 * little-endian 64-bit words. Two snapshots of identical machine
 * state are byte-identical regardless of --jobs or of how the
 * machine reached that state.
 *
 * The keystone property the subsystem is built around: snapshot at
 * cycle N + resume to completion must be byte-identical — golden
 * `ssmt-golden-v1` serialization and `ssmt-series-v1` metrics series
 * — to the straight-through run.
 *
 * What is deliberately NOT checkpointed (see DESIGN.md):
 *   - the Program (regenerated from the workload registry; the
 *     envelope pins name + content hash instead),
 *   - config-derived tables (static hints, histogram geometry),
 *   - the pipeline-event trace (observability, not machine state),
 *   - scratch buffers that are cleared before every use.
 */

#ifndef SSMT_SIM_SNAPSHOT_HH
#define SSMT_SIM_SNAPSHOT_HH

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/json_text.hh"

namespace ssmt
{

namespace isa
{
class Program;
}

namespace cpu
{
class SsmtCore;
}

namespace sim
{

struct MachineConfig;

extern const char kSnapshotSchema[];    ///< "ssmt-snapshot-v1"

/**
 * Incremental canonical-JSON emitter. Structure calls must balance;
 * keyed calls require an open object, unkeyed calls an open array.
 * The writer also carries the machine clock at capture time, for
 * components whose state is only meaningful relative to "now": a
 * FuPool saves only its claims at or after the clock, because older
 * ones are dead, and its restore reads the same clock back from the
 * SnapshotReader to re-place those claims in a ring of any length.
 */
class SnapshotWriter
{
  public:
    SnapshotWriter();

    void beginObject();
    void beginObject(const char *key);
    void endObject();
    void beginArray(const char *key);
    void endArray();

    void u64(uint64_t value);
    void u64(const char *key, uint64_t value);
    /** Signed values travel as their two's-complement bit pattern. */
    void
    i64(const char *key, int64_t value)
    {
        u64(key, static_cast<uint64_t>(value));
    }
    void boolean(const char *key, bool value);
    void str(const std::string &value);
    void str(const char *key, const std::string &value);
    void u64Array(const char *key, const uint64_t *data, size_t n);
    void u64Array(const char *key, const std::vector<uint64_t> &v);
    /** Bulk memory: @p n little-endian 64-bit words as one hex
     *  string (16 hex chars per word). */
    void hexWords(const char *key, const uint64_t *words, size_t n);

    /** The finished document; all scopes must be closed. */
    const std::string &text() const;

    void setClock(uint64_t cycle) { clock_ = cycle; }
    uint64_t clock() const { return clock_; }

  private:
    std::string out_;
    std::vector<char> scopes_;  ///< '{' or '['
    std::vector<bool> first_;
    uint64_t clock_ = 0;

    void separator();
    void emitKey(const char *key);
};

/**
 * Cursor over a parsed snapshot document. Construction parses (and
 * throws SimError(ParseError) on malformed text); enter()/leave()
 * navigate nested objects and arrays; typed getters throw
 * SimError(ParseError) on a missing key or a kind mismatch, so a
 * truncated or hand-edited snapshot fails loudly instead of
 * restoring garbage.
 */
class SnapshotReader
{
  public:
    explicit SnapshotReader(const std::string &text);

    /** Descend into the object member @p key. */
    void enter(const char *key);
    /** Descend into the array member @p key. @return item count. */
    size_t enterArray(const char *key);
    /** Descend into item @p i of the current array. */
    void enterItem(size_t i);
    /** Ascend one level. */
    void leave();

    bool has(const char *key) const;
    uint64_t u64(const char *key) const;
    int64_t
    i64(const char *key) const
    {
        return static_cast<int64_t>(u64(key));
    }
    bool boolean(const char *key) const;
    std::string str(const char *key) const;
    std::vector<std::string> strArray(const char *key) const;
    std::vector<uint64_t> u64Array(const char *key) const;
    /** u64Array with an exact expected length (throws otherwise). */
    void u64ArrayInto(const char *key, uint64_t *out, size_t n) const;
    /** Decode a hexWords blob into exactly @p n words. */
    void hexWords(const char *key, uint64_t *words, size_t n) const;

    /** Throw SimError(ParseError) unless @p got == @p want; lets a
     *  component pin serialized lengths against its geometry. */
    void requireSize(const char *what, size_t got, size_t want) const;

    /** Throw SimError(ParseError) saying @p what: lets a component
     *  refuse a value its state cannot hold. */
    [[noreturn]] void fail(const std::string &what) const;

    void setClock(uint64_t cycle) { clock_ = cycle; }
    uint64_t clock() const { return clock_; }

  private:
    JsonValue root_;
    std::vector<const JsonValue *> stack_;
    uint64_t clock_ = 0;

    const JsonValue &cur() const;
    const JsonValue &member(const char *key) const;
};

/** The uniform checkpoint interface. Small hot structures satisfy it
 *  non-virtually (checked by SnapshotterLike); the top-level machine
 *  implements it virtually so drivers can checkpoint through a
 *  common vtable. */
class Snapshotter
{
  public:
    virtual ~Snapshotter() = default;
    virtual void save(SnapshotWriter &w) const = 0;
    virtual void restore(SnapshotReader &r) = 0;
};

/** Compile-time form of the interface for components that must not
 *  pay for a vtable. Every snapshotted component static_asserts this
 *  next to its save/restore implementation. */
template <typename T>
concept SnapshotterLike =
    requires(const T &ct, T &t, SnapshotWriter &w, SnapshotReader &r) {
        { ct.save(w) } -> std::same_as<void>;
        { t.restore(r) } -> std::same_as<void>;
    };

/**
 * Layout pin: static_assert that a snapshotted type's size has not
 * changed, mirroring sim/golden's sizeof(Stats) pin. A new stateful
 * field changes sizeof and fails the build until save()/restore()
 * (and the pinned size) are updated. The template indirection makes
 * the compiler print the *actual* size in the error message.
 */
template <std::size_t Actual, std::size_t Pinned>
struct LayoutPin
{
    static_assert(Actual == Pinned,
                  "snapshotted component layout changed: update its "
                  "save()/restore() and re-pin the size (the first "
                  "template argument above is the actual sizeof)");
    static constexpr bool ok = (Actual == Pinned);
};

/** Sizes are only portable within one ABI; pin where the golden CI
 *  toolchain (libstdc++ on x86-64, non-debug containers) runs and
 *  compile to nothing elsewhere. */
#if defined(__GLIBCXX__) && defined(__x86_64__) && \
    !defined(_GLIBCXX_DEBUG)
#define SSMT_SNAPSHOT_PIN_LAYOUT(type, bytes)                       \
    static_assert(::ssmt::sim::LayoutPin<sizeof(type), (bytes)>::ok)
#else
#define SSMT_SNAPSHOT_PIN_LAYOUT(type, bytes) static_assert(true)
#endif

/** FNV-1a content hash over a program's code and data image, so a
 *  snapshot refuses to restore against the wrong program. */
uint64_t programHash(const isa::Program &prog);

/** Serialize @p core (plus the identifying envelope) into a complete
 *  ssmt-snapshot-v1 document. The core must not be finalized. */
std::string writeMachineSnapshot(const cpu::SsmtCore &core,
                                 const isa::Program &prog,
                                 const MachineConfig &config,
                                 const std::string &label);

/**
 * Restore @p core from @p text. Throws SimError(ParseError) on a
 * malformed document and SimError(ConfigInvalid) when the snapshot
 * was captured from a different program or an incompatible
 * (structurally different) configuration. @p core must have been
 * constructed from @p prog and @p config; the mechanism mode may
 * differ from the capture mode (warmup fan-out).
 */
void restoreMachineSnapshot(cpu::SsmtCore &core,
                            const isa::Program &prog,
                            const MachineConfig &config,
                            const std::string &text);

/** Peek at a snapshot's capture cycle without restoring it. */
uint64_t snapshotCycle(const std::string &text);

/** Peek at a snapshot's label without restoring it. */
std::string snapshotLabel(const std::string &text);

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_SNAPSHOT_HH
