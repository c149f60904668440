#include "sim/metrics.hh"

#include "sim/golden.hh"
#include "sim/snapshot.hh"

namespace ssmt
{
namespace sim
{

const char kSeriesSchema[] = "ssmt-series-v1";

// ---------------------------------------------------------------------
// OccupancyHistogram
// ---------------------------------------------------------------------

OccupancyHistogram::OccupancyHistogram(std::string name,
                                       uint64_t capacity,
                                       uint32_t num_buckets)
    : name_(std::move(name)), capacity_(capacity)
{
    if (num_buckets == 0)
        num_buckets = 1;
    bucketWidth_ = (capacity_ + num_buckets) / num_buckets;
    if (bucketWidth_ == 0)
        bucketWidth_ = 1;
    buckets_.assign(num_buckets, 0);
}

void
OccupancyHistogram::add(uint64_t value)
{
    size_t idx = static_cast<size_t>(value / bucketWidth_);
    if (idx >= buckets_.size())
        idx = buckets_.size() - 1;
    buckets_[idx]++;
    if (samples_ == 0 || value < min_)
        min_ = value;
    if (value > max_)
        max_ = value;
    sum_ += value;
    samples_++;
}

// ---------------------------------------------------------------------
// IntervalSampler
// ---------------------------------------------------------------------

IntervalSampler::IntervalSampler(uint64_t interval,
                                 const MachineConfig &cfg)
    : interval_(interval)
{
    series_.interval = interval;
    if (interval_ == 0)
        return;
    series_.histograms.emplace_back("prb", cfg.prbEntries);
    series_.histograms.emplace_back("microcontexts",
                                    cfg.numMicrocontexts);
    series_.histograms.emplace_back("predictionCache",
                                    cfg.predictionCacheEntries);
    series_.histograms.emplace_back("microRam", cfg.microRamEntries);
    series_.histograms.emplace_back(
        "window", static_cast<uint64_t>(cfg.windowSize));
}

namespace
{

void
feedHistograms(std::vector<OccupancyHistogram> &hists,
               const OccupancyGauges &gauges)
{
    // Field order matches the histogram construction order above.
    hists[0].add(gauges.prbEntries);
    hists[1].add(gauges.liveMicrocontexts);
    hists[2].add(gauges.pcacheValidEntries);
    hists[3].add(gauges.microRamRoutines);
    hists[4].add(gauges.windowFill);
}

} // namespace

void
IntervalSampler::sample(uint64_t cycle, const Stats &stats,
                        const OccupancyGauges &gauges)
{
    if (interval_ == 0)
        return;
    series_.samples.push_back({cycle, stats, gauges});
    feedHistograms(series_.histograms, gauges);
}

void
IntervalSampler::finalize(uint64_t cycle, const Stats &stats,
                          const OccupancyGauges &gauges)
{
    if (interval_ == 0)
        return;
    if (!series_.samples.empty() &&
        series_.samples.back().cycle == cycle) {
        // The run ended exactly on an interval boundary: promote the
        // in-run sample to the finalized counters. The gauges (and
        // the histograms they fed) keep the values the in-run hook
        // observed — finalization reclaims the Prediction Cache,
        // which must not retroactively rewrite an observed fill.
        series_.samples.back().stats = stats;
        return;
    }
    series_.samples.push_back({cycle, stats, gauges});
    feedHistograms(series_.histograms, gauges);
}

// ---------------------------------------------------------------------
// Serialization (ssmt-series-v1)
// ---------------------------------------------------------------------

std::string
seriesDocumentJson(const MetricsSeries &series,
                   const std::string &workload,
                   const std::string &config)
{
    SnapshotWriter w(SnapshotWriter::Layout::Spaced);
    w.beginObject(SnapshotWriter::kLines);
    w.str("schema", kSeriesSchema);
    w.str("workload", workload);
    w.str("config", config);
    w.u64("interval", series.interval);
    w.beginArray("samples", SnapshotWriter::kLines);
    for (const Sample &sample : series.samples) {
        w.beginObject();
        w.u64("cycle", sample.cycle);
        w.beginObject("counters");
        for (const auto &[name, value] : flattenStats(sample.stats))
            w.u64(name.c_str(), value);
        w.endObject();
        w.beginObject("gauges");
        w.u64("prbEntries", sample.gauges.prbEntries);
        w.u64("liveMicrocontexts", sample.gauges.liveMicrocontexts);
        w.u64("pcacheValidEntries", sample.gauges.pcacheValidEntries);
        w.u64("microRamRoutines", sample.gauges.microRamRoutines);
        w.u64("windowFill", sample.gauges.windowFill);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.beginArray("histograms", SnapshotWriter::kLines);
    for (const OccupancyHistogram &hist : series.histograms) {
        w.beginObject();
        w.str("name", hist.name());
        w.u64("capacity", hist.capacity());
        w.u64("bucketWidth", hist.bucketWidth());
        w.u64("samples", hist.samples());
        w.u64("min", hist.minValue());
        w.u64("max", hist.maxValue());
        w.u64("sum", hist.sum());
        w.u64Array("buckets", hist.buckets());
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.text();
}

} // namespace sim
} // namespace ssmt
