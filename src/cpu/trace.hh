/**
 * @file
 * Pipeline event trace: an optional, bounded ring of timestamped
 * events the SSMT core emits at its decision points. Disabled (zero
 * capacity, no stream) by default, so the hot path pays one
 * predictable branch.
 *
 * Two capture modes compose freely:
 *  - the bounded ring retains the last `capacity` events for
 *    post-run inspection (Chrome-trace export), and
 *  - an optional JSONL stream appends every event as one JSON line
 *    to a file, for unbounded captures that would overflow any ring.
 *
 * chromeTraceJson() converts retained events into the Chrome
 * trace-event format (load it in Perfetto or chrome://tracing): one
 * track per microcontext carrying microthread-lifetime slices, a
 * mechanism track for Promote/Demote/Spawn/PredEarly/PredLate-style
 * events, and a primary track for fetch/retire/mispredict marks.
 * One simulated cycle is rendered as one microsecond. Both formats
 * go through sim::SnapshotWriter's spaced layout: a JSONL line is
 * one inline object, a Chrome trace has its root and `traceEvents`
 * one item per line.
 */

#ifndef SSMT_CPU_TRACE_HH
#define SSMT_CPU_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/snapshot.hh"

namespace ssmt
{
namespace cpu
{

enum class TraceEvent : uint8_t
{
    Fetch,              ///< pc, seq
    Mispredict,         ///< pc, seq (used prediction wrong)
    Retire,             ///< pc, seq
    Promote,            ///< aux = Path_Id
    Demote,             ///< aux = Path_Id
    Spawn,              ///< pc = spawn pc, aux = Path_Id
    SpawnAbortPrefix,   ///< pc = spawn pc, aux = Path_Id
    ThreadAbort,        ///< aux = Path_Id (path deviated in flight)
    ThreadComplete,     ///< aux = Path_Id
    PredEarly,          ///< pc = branch pc, seq, aux = Path_Id
    PredLate,           ///< seq, aux = Path_Id
    EarlyRecovery,      ///< seq
    BogusRecovery       ///< seq
};

const char *traceEventName(TraceEvent event);

/** TraceRecord::ctx when the event has no owning microcontext. */
constexpr uint32_t kNoTraceCtx = 0xffffffffu;

struct TraceRecord
{
    uint64_t cycle = 0;
    TraceEvent event = TraceEvent::Fetch;
    uint64_t pc = 0;
    uint64_t seq = 0;
    uint64_t aux = 0;
    /** Owning microcontext index, or kNoTraceCtx. */
    uint32_t ctx = kNoTraceCtx;

    /** Write this event as one inline object: a JSONL line with
     *  "ctx" only when set. */
    void writeJson(sim::SnapshotWriter &w) const;
};

class PipelineTrace
{
  public:
    /** @param capacity ring size; 0 disables the ring. */
    explicit PipelineTrace(size_t capacity = 0);
    ~PipelineTrace();

    PipelineTrace(const PipelineTrace &) = delete;
    PipelineTrace &operator=(const PipelineTrace &) = delete;

    bool enabled() const { return armed_; }

    /**
     * Start streaming every subsequent record as one JSON line to
     * @p path (truncates an existing file). Works with or without a
     * ring. @return false if the file cannot be opened.
     */
    bool streamTo(const std::string &path);

    /** Flush and close the JSONL stream (no-op when not streaming). */
    void closeStream();

    void
    record(uint64_t cycle, TraceEvent event, uint64_t pc = 0,
           uint64_t seq = 0, uint64_t aux = 0,
           uint32_t ctx = kNoTraceCtx)
    {
        // One byte load on the (default) disabled path; the record
        // call sites sit inside per-instruction loops.
        if (!armed_)
            return;
        recordSlow(cycle, event, pc, seq, aux, ctx);
    }

    /** Events currently retained in the ring, oldest first. */
    std::vector<TraceRecord> records() const;

    /** Number of retained events. */
    size_t size() const { return size_; }

    /** Total events ever recorded (including overwritten). */
    uint64_t totalRecorded() const { return totalRecorded_; }

  private:
    void recordSlow(uint64_t cycle, TraceEvent event, uint64_t pc,
                    uint64_t seq, uint64_t aux, uint32_t ctx);

    std::vector<TraceRecord> ring_;
    size_t head_ = 0;
    size_t size_ = 0;
    uint64_t totalRecorded_ = 0;
    std::FILE *stream_ = nullptr;
    /** Reused for every JSONL line: no allocation per event. */
    sim::SnapshotWriter line_{sim::SnapshotWriter::Layout::Spaced};
    /** Cache of (!ring_.empty() || stream_), maintained by the
     *  constructor and the stream open/close transitions. */
    bool armed_ = false;
};

/**
 * Chrome trace-event JSON for @p records (see the file header).
 * Deterministic: depends only on the record sequence.
 */
std::string chromeTraceJson(const std::vector<TraceRecord> &records);

} // namespace cpu
} // namespace ssmt

#endif // SSMT_CPU_TRACE_HH

