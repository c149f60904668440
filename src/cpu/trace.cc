#include "cpu/trace.hh"

#include <algorithm>
#include <sstream>

namespace ssmt
{
namespace cpu
{

const char *
traceEventName(TraceEvent event)
{
    switch (event) {
      case TraceEvent::Fetch:            return "fetch";
      case TraceEvent::Mispredict:       return "mispredict";
      case TraceEvent::Retire:           return "retire";
      case TraceEvent::Promote:          return "promote";
      case TraceEvent::Demote:           return "demote";
      case TraceEvent::Spawn:            return "spawn";
      case TraceEvent::SpawnAbortPrefix: return "spawn-abort-prefix";
      case TraceEvent::ThreadAbort:      return "thread-abort";
      case TraceEvent::ThreadComplete:   return "thread-complete";
      case TraceEvent::PredEarly:        return "pred-early";
      case TraceEvent::PredLate:         return "pred-late";
      case TraceEvent::EarlyRecovery:    return "early-recovery";
      case TraceEvent::BogusRecovery:    return "bogus-recovery";
    }
    return "?";
}

std::string
TraceRecord::toJsonLine() const
{
    char buf[192];
    if (ctx == kNoTraceCtx) {
        std::snprintf(buf, sizeof(buf),
                      "{\"cycle\": %llu, \"event\": \"%s\", "
                      "\"pc\": %llu, \"seq\": %llu, \"aux\": %llu}",
                      static_cast<unsigned long long>(cycle),
                      traceEventName(event),
                      static_cast<unsigned long long>(pc),
                      static_cast<unsigned long long>(seq),
                      static_cast<unsigned long long>(aux));
    } else {
        std::snprintf(buf, sizeof(buf),
                      "{\"cycle\": %llu, \"event\": \"%s\", "
                      "\"pc\": %llu, \"seq\": %llu, \"aux\": %llu, "
                      "\"ctx\": %u}",
                      static_cast<unsigned long long>(cycle),
                      traceEventName(event),
                      static_cast<unsigned long long>(pc),
                      static_cast<unsigned long long>(seq),
                      static_cast<unsigned long long>(aux), ctx);
    }
    return buf;
}

PipelineTrace::PipelineTrace(size_t capacity) : ring_(capacity)
{
    armed_ = !ring_.empty();
}

PipelineTrace::~PipelineTrace()
{
    closeStream();
}

bool
PipelineTrace::streamTo(const std::string &path)
{
    closeStream();
    stream_ = std::fopen(path.c_str(), "w");
    armed_ = !ring_.empty() || stream_;
    return stream_ != nullptr;
}

void
PipelineTrace::closeStream()
{
    if (!stream_)
        return;
    std::fclose(stream_);
    stream_ = nullptr;
    armed_ = !ring_.empty();
}

void
PipelineTrace::recordSlow(uint64_t cycle, TraceEvent event,
                          uint64_t pc, uint64_t seq, uint64_t aux,
                          uint32_t ctx)
{
    totalRecorded_++;
    if (!ring_.empty()) {
        TraceRecord &slot = ring_[head_];
        slot.cycle = cycle;
        slot.event = event;
        slot.pc = pc;
        slot.seq = seq;
        slot.aux = aux;
        slot.ctx = ctx;
        head_ = (head_ + 1) % ring_.size();
        if (size_ < ring_.size())
            size_++;
    }
    if (stream_) {
        TraceRecord rec{cycle, event, pc, seq, aux, ctx};
        std::string line = rec.toJsonLine();
        line += '\n';
        std::fwrite(line.data(), 1, line.size(), stream_);
    }
}

std::vector<TraceRecord>
PipelineTrace::records() const
{
    std::vector<TraceRecord> out;
    if (size_ == 0)
        return out;
    out.reserve(size_);
    size_t start = (head_ + ring_.size() - size_) % ring_.size();
    for (size_t i = 0; i < size_; i++)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

// ---------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------

namespace
{

// Fixed track (tid) layout: 0 = primary pipeline, 1 = mechanism,
// 2 + ctx = one track per microcontext.
constexpr uint32_t kPrimaryTid = 0;
constexpr uint32_t kMechanismTid = 1;
constexpr uint32_t kCtxTidBase = 2;

void
appendInstant(std::ostringstream &out, bool &first,
              const TraceRecord &rec, uint32_t tid)
{
    out << (first ? "\n    " : ",\n    ");
    first = false;
    out << "{\"name\": \"" << traceEventName(rec.event)
        << "\", \"cat\": "
        << (tid == kMechanismTid ? "\"mechanism\"" : "\"pipeline\"")
        << ", \"ph\": \"i\", \"s\": \"t\", \"ts\": " << rec.cycle
        << ", \"pid\": 0, \"tid\": " << tid
        << ", \"args\": {\"pc\": " << rec.pc
        << ", \"seq\": " << rec.seq << ", \"path\": " << rec.aux
        << "}}";
}

void
appendSlice(std::ostringstream &out, bool &first, uint64_t start,
            uint64_t end, uint32_t tid, uint64_t path_id,
            uint64_t spawn_seq, const char *outcome)
{
    uint64_t dur = end > start ? end - start : 1;
    out << (first ? "\n    " : ",\n    ");
    first = false;
    out << "{\"name\": \"uthread " << path_id
        << "\", \"cat\": \"uthread\", \"ph\": \"X\", \"ts\": "
        << start << ", \"dur\": " << dur
        << ", \"pid\": 0, \"tid\": " << tid
        << ", \"args\": {\"path\": " << path_id
        << ", \"spawnSeq\": " << spawn_seq << ", \"outcome\": \""
        << outcome << "\"}}";
}

void
appendThreadName(std::ostringstream &out, bool &first, uint32_t tid,
                 const std::string &name)
{
    out << (first ? "\n    " : ",\n    ");
    first = false;
    out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
        << "\"tid\": " << tid << ", \"args\": {\"name\": \"" << name
        << "\"}}";
}

/** A microthread slice opened by Spawn, awaiting its end event. */
struct OpenSlice
{
    uint64_t startCycle = 0;
    uint64_t pathId = 0;
    uint64_t spawnSeq = 0;
};

/**
 * The per-context open-slice table, previously a std::map. Contexts
 * number in the single digits, so a flat vector kept sorted by
 * context id beats the red-black tree's node allocation per spawn —
 * and the ordered final sweep ("in-flight" slices) falls out of the
 * sort order, keeping the emitted JSON byte-identical.
 */
class OpenSlices
{
  public:
    OpenSlice *
    find(uint32_t ctx)
    {
        auto it = lowerBound(ctx);
        if (it != entries_.end() && it->first == ctx)
            return &it->second;
        return nullptr;
    }

    void
    put(uint32_t ctx, const OpenSlice &slice)
    {
        auto it = lowerBound(ctx);
        if (it != entries_.end() && it->first == ctx)
            it->second = slice;
        else
            entries_.insert(it, {ctx, slice});
    }

    void
    erase(uint32_t ctx)
    {
        auto it = lowerBound(ctx);
        if (it != entries_.end() && it->first == ctx)
            entries_.erase(it);
    }

    /** Entries in ascending context order. */
    const std::vector<std::pair<uint32_t, OpenSlice>> &
    sorted() const
    {
        return entries_;
    }

  private:
    std::vector<std::pair<uint32_t, OpenSlice>> entries_;

    std::vector<std::pair<uint32_t, OpenSlice>>::iterator
    lowerBound(uint32_t ctx)
    {
        return std::lower_bound(
            entries_.begin(), entries_.end(), ctx,
            [](const std::pair<uint32_t, OpenSlice> &entry,
               uint32_t key) { return entry.first < key; });
    }
};

} // namespace

std::string
chromeTraceJson(const std::vector<TraceRecord> &records)
{
    std::ostringstream out;
    out << "{\n  \"displayTimeUnit\": \"ms\",\n"
        << "  \"otherData\": {\"schema\": \"ssmt-chrome-trace-v1\", "
        << "\"timeUnit\": \"1 ts = 1 cycle\"},\n"
        << "  \"traceEvents\": [";
    bool first = true;

    appendThreadName(out, first, kPrimaryTid, "primary");
    appendThreadName(out, first, kMechanismTid, "mechanism");
    out << (first ? "\n    " : ",\n    ");
    first = false;
    out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
        << "\"args\": {\"name\": \"ssmt\"}}";

    // One track per microcontext that appears in the capture, named
    // in first-appearance order (matching the historical output).
    OpenSlices open;
    uint64_t last_cycle = 0;
    std::vector<uint32_t> named;
    for (const TraceRecord &rec : records) {
        last_cycle = rec.cycle > last_cycle ? rec.cycle : last_cycle;
        if (rec.ctx == kNoTraceCtx)
            continue;
        if (std::find(named.begin(), named.end(), rec.ctx) ==
            named.end()) {
            named.push_back(rec.ctx);
            appendThreadName(out, first, kCtxTidBase + rec.ctx,
                             "uctx" + std::to_string(rec.ctx));
        }
    }

    for (const TraceRecord &rec : records) {
        switch (rec.event) {
          case TraceEvent::Fetch:
          case TraceEvent::Retire:
          case TraceEvent::Mispredict:
            appendInstant(out, first, rec, kPrimaryTid);
            break;
          case TraceEvent::Spawn: {
            appendInstant(out, first, rec, kMechanismTid);
            if (rec.ctx == kNoTraceCtx)
                break;
            if (const OpenSlice *stale = open.find(rec.ctx)) {
                // The matching end event was lost (ring eviction);
                // close the stale slice at this spawn.
                appendSlice(out, first, stale->startCycle,
                            rec.cycle, kCtxTidBase + rec.ctx,
                            stale->pathId, stale->spawnSeq,
                            "truncated");
            }
            open.put(rec.ctx, {rec.cycle, rec.aux, rec.seq});
            break;
          }
          case TraceEvent::ThreadAbort:
          case TraceEvent::ThreadComplete: {
            appendInstant(out, first, rec, kMechanismTid);
            if (rec.ctx == kNoTraceCtx)
                break;
            const OpenSlice *slice = open.find(rec.ctx);
            if (!slice)
                break;      // spawn fell off the ring
            appendSlice(out, first, slice->startCycle, rec.cycle,
                        kCtxTidBase + rec.ctx, slice->pathId,
                        slice->spawnSeq,
                        rec.event == TraceEvent::ThreadComplete
                            ? "complete"
                            : "abort");
            open.erase(rec.ctx);
            break;
          }
          default:
            appendInstant(out, first, rec, kMechanismTid);
            break;
        }
    }

    // Microthreads still in flight when the capture ended.
    for (const auto &entry : open.sorted()) {
        appendSlice(out, first, entry.second.startCycle,
                    last_cycle + 1, kCtxTidBase + entry.first,
                    entry.second.pathId, entry.second.spawnSeq,
                    "in-flight");
    }

    out << "\n  ]\n}\n";
    return out.str();
}

} // namespace cpu
} // namespace ssmt
