#include "cpu/trace.hh"

#include <algorithm>
#include <map>

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

void
TraceRecord::writeJson(sim::SnapshotWriter &w) const
{
    w.beginObject();
    w.u64("cycle", cycle);
    w.str("event", traceEventName(event));
    w.u64("pc", pc);
    w.u64("seq", seq);
    w.u64("aux", aux);
    if (ctx != kNoTraceCtx)
        w.u64("ctx", ctx);
    w.endObject();
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
        line_.clear();
        TraceRecord{cycle, event, pc, seq, aux, ctx}.writeJson(line_);
        const std::string &line = line_.text();
        std::fwrite(line.data(), 1, line.size(), stream_);
        std::fputc('\n', stream_);
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

/** A microthread slice opened by Spawn, awaiting its end event. */
struct OpenSlice
{
    uint64_t startCycle = 0;
    uint64_t pathId = 0;
    uint64_t spawnSeq = 0;
};

} // namespace

std::string
chromeTraceJson(const std::vector<TraceRecord> &records)
{
    sim::SnapshotWriter w(sim::SnapshotWriter::Layout::Spaced);
    w.beginObject(sim::SnapshotWriter::kLines);
    w.str("displayTimeUnit", "ms");
    w.beginObject("otherData");
    w.str("schema", "ssmt-chrome-trace-v1");
    w.str("timeUnit", "1 ts = 1 cycle");
    w.endObject();
    w.beginArray("traceEvents", sim::SnapshotWriter::kLines);

    auto thread_name = [&w](uint32_t tid, const std::string &name) {
        w.beginObject();
        w.str("name", "thread_name");
        w.str("ph", "M");
        w.u64("pid", 0);
        w.u64("tid", tid);
        w.beginObject("args");
        w.str("name", name);
        w.endObject();
        w.endObject();
    };
    auto slice = [&w](uint32_t ctx, const OpenSlice &thread,
                      uint64_t end, const char *outcome) {
        uint64_t start = thread.startCycle;
        w.beginObject();
        w.str("name", "uthread " + std::to_string(thread.pathId));
        w.str("cat", "uthread");
        w.str("ph", "X");
        w.u64("ts", start);
        w.u64("dur", end > start ? end - start : 1);
        w.u64("pid", 0);
        w.u64("tid", kCtxTidBase + ctx);
        w.beginObject("args");
        w.u64("path", thread.pathId);
        w.u64("spawnSeq", thread.spawnSeq);
        w.str("outcome", outcome);
        w.endObject();
        w.endObject();
    };

    thread_name(kPrimaryTid, "primary");
    thread_name(kMechanismTid, "mechanism");
    w.beginObject();
    w.str("name", "process_name");
    w.str("ph", "M");
    w.u64("pid", 0);
    w.beginObject("args");
    w.str("name", "ssmt");
    w.endObject();
    w.endObject();

    // One track per microcontext that appears in the capture, named
    // in first-appearance order (matching the historical output).
    uint64_t last_cycle = 0;
    std::vector<uint32_t> named;
    for (const TraceRecord &rec : records) {
        last_cycle = rec.cycle > last_cycle ? rec.cycle : last_cycle;
        if (rec.ctx == kNoTraceCtx)
            continue;
        if (std::find(named.begin(), named.end(), rec.ctx) ==
            named.end()) {
            named.push_back(rec.ctx);
            thread_name(kCtxTidBase + rec.ctx,
                        "uctx" + std::to_string(rec.ctx));
        }
    }

    // Every event is an instant on its track; microthread lifetimes
    // also become slices on their context's track.
    std::map<uint32_t, OpenSlice> open;
    for (const TraceRecord &rec : records) {
        bool primary = rec.event == TraceEvent::Fetch ||
                       rec.event == TraceEvent::Retire ||
                       rec.event == TraceEvent::Mispredict;
        w.beginObject();
        w.str("name", traceEventName(rec.event));
        w.str("cat", primary ? "pipeline" : "mechanism");
        w.str("ph", "i");
        w.str("s", "t");
        w.u64("ts", rec.cycle);
        w.u64("pid", 0);
        w.u64("tid", primary ? kPrimaryTid : kMechanismTid);
        w.beginObject("args");
        w.u64("pc", rec.pc);
        w.u64("seq", rec.seq);
        w.u64("path", rec.aux);
        w.endObject();
        w.endObject();
        if (rec.ctx == kNoTraceCtx)
            continue;

        auto it = open.find(rec.ctx);
        if (rec.event == TraceEvent::Spawn) {
            // A slice still open lost its end event (ring eviction);
            // close it at this spawn.
            if (it != open.end())
                slice(rec.ctx, it->second, rec.cycle, "truncated");
            open[rec.ctx] = {rec.cycle, rec.aux, rec.seq};
        } else if (rec.event == TraceEvent::ThreadComplete ||
                   rec.event == TraceEvent::ThreadAbort) {
            if (it == open.end())
                continue;       // its spawn fell off the ring
            slice(rec.ctx, it->second, rec.cycle,
                  rec.event == TraceEvent::ThreadComplete ? "complete"
                                                          : "abort");
            open.erase(it);
        }
    }

    // Microthreads still in flight when the capture ended, in
    // ascending context order.
    for (const auto &[ctx, thread] : open)
        slice(ctx, thread, last_cycle + 1, "in-flight");

    w.endArray();
    w.endObject();
    return w.text();
}

} // namespace cpu
} // namespace ssmt
