#include "sim/job_codec.hh"

#include "sim/golden.hh"
#include "sim/metrics.hh"
#include "sim/snapshot.hh"

namespace ssmt
{
namespace sim
{

const char kJobResultSchema[] = "ssmt-job-result-v1";

std::string
encodeJobResult(const BatchResult &result,
                const std::string &checkpoint, bool final_attempt)
{
    SnapshotWriter w;
    w.beginObject();
    w.str("schema", kJobResultSchema);
    w.str("errorCode", errorCodeName(result.errorCode));
    w.str("error", result.error);
    w.u64("attempts", result.attempts);
    w.boolean("final", final_attempt);
    w.u64Array("stats", statsValues(result.stats));

    w.beginObject("faults");
    w.u64("armed", result.faults.armed);
    w.u64("injected", result.faults.injected);
    w.u64("noTarget", result.faults.noTarget);
    w.endObject();

    // The series layout IntervalSampler::restore reads, emitted from
    // the bare MetricsSeries (the sampler that produced it lives
    // inside the finished run). Geometry does not travel; decode
    // rebuilds it from the config.
    const MetricsSeries &series = result.artifacts.series;
    w.u64("seriesInterval", series.interval);
    if (series.interval != 0) {
        w.beginObject("series");
        w.beginArray("samples");
        for (const Sample &s : series.samples) {
            w.beginObject();
            w.u64("cycle", s.cycle);
            w.u64Array("counters", statsValues(s.stats));
            const uint64_t gauges[5] = {
                s.gauges.prbEntries, s.gauges.liveMicrocontexts,
                s.gauges.pcacheValidEntries,
                s.gauges.microRamRoutines, s.gauges.windowFill};
            w.u64Array("gauges", gauges, 5);
            w.endObject();
        }
        w.endArray();
        w.beginArray("histograms");
        for (const OccupancyHistogram &h : series.histograms) {
            w.beginObject();
            h.save(w);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }

    w.beginArray("trace");
    for (const cpu::TraceRecord &rec : result.artifacts.trace) {
        w.beginObject();
        w.u64("cycle", rec.cycle);
        w.u64("event", static_cast<uint64_t>(rec.event));
        w.u64("pc", rec.pc);
        w.u64("seq", rec.seq);
        w.u64("aux", rec.aux);
        w.u64("ctx", rec.ctx);
        w.endObject();
    }
    w.endArray();

    w.str("checkpoint", checkpoint);
    w.endObject();
    return w.text();
}

void
decodeJobResult(const std::string &text, const MachineConfig &config,
                BatchResult *result, std::string *checkpoint,
                bool *final_attempt)
{
    SnapshotReader r(text);
    std::string schema = r.str("schema");
    if (schema != kJobResultSchema) {
        throw SimError(ErrorCode::ParseError, "job-codec",
                       "unexpected schema '" + schema + "' (want " +
                           kJobResultSchema + ")");
    }

    std::string code_name = r.str("errorCode");
    if (!parseErrorCode(code_name, &result->errorCode)) {
        throw SimError(ErrorCode::ParseError, "job-codec",
                       "unknown errorCode '" + code_name + "'");
    }
    result->error = r.str("error");
    result->attempts = static_cast<unsigned>(r.u64("attempts"));
    *final_attempt = r.boolean("final");
    statsFromValues(result->stats, r.u64Array("stats"));

    r.enter("faults");
    result->faults.armed = r.u64("armed");
    result->faults.injected = r.u64("injected");
    result->faults.noTarget = r.u64("noTarget");
    r.leave();

    uint64_t interval = r.u64("seriesInterval");
    if (interval != 0) {
        if (interval != config.sampleInterval) {
            throw SimError(ErrorCode::ParseError, "job-codec",
                           "series interval " +
                               std::to_string(interval) +
                               " disagrees with the config's " +
                               std::to_string(config.sampleInterval));
        }
        IntervalSampler sampler(interval, config);
        r.enter("series");
        sampler.restore(r);
        r.leave();
        result->artifacts.series = sampler.series();
    } else {
        result->artifacts.series = MetricsSeries{};
    }

    result->artifacts.trace.clear();
    size_t ntrace = r.enterArray("trace");
    for (size_t i = 0; i < ntrace; i++) {
        r.enterItem(i);
        cpu::TraceRecord rec;
        rec.cycle = r.u64("cycle");
        uint64_t event = r.u64("event");
        if (event >
            static_cast<uint64_t>(cpu::TraceEvent::BogusRecovery)) {
            throw SimError(ErrorCode::ParseError, "job-codec",
                           "trace event " + std::to_string(event) +
                               " out of range");
        }
        rec.event = static_cast<cpu::TraceEvent>(event);
        rec.pc = r.u64("pc");
        rec.seq = r.u64("seq");
        rec.aux = r.u64("aux");
        uint64_t ctx = r.u64("ctx");
        if (ctx > 0xffffffffull) {
            throw SimError(ErrorCode::ParseError, "job-codec",
                           "trace ctx " + std::to_string(ctx) +
                               " out of range");
        }
        rec.ctx = static_cast<uint32_t>(ctx);
        result->artifacts.trace.push_back(rec);
        r.leave();
    }
    r.leave();

    *checkpoint = r.str("checkpoint");
    result->hostSeconds = 0.0;
}

} // namespace sim
} // namespace ssmt
