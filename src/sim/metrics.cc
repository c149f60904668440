#include "sim/metrics.hh"

#include <sstream>

#include "sim/fsio.hh"
#include "sim/golden.hh"

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

namespace
{

void
appendSample(std::ostringstream &out, const Sample &sample)
{
    out << "{\"cycle\": " << sample.cycle << ", \"counters\": {";
    auto counters = flattenStats(sample.stats);
    for (size_t i = 0; i < counters.size(); i++) {
        out << (i ? ", " : "") << '"' << counters[i].first
            << "\": " << counters[i].second;
    }
    out << "}, \"gauges\": {\"prbEntries\": "
        << sample.gauges.prbEntries << ", \"liveMicrocontexts\": "
        << sample.gauges.liveMicrocontexts
        << ", \"pcacheValidEntries\": "
        << sample.gauges.pcacheValidEntries
        << ", \"microRamRoutines\": "
        << sample.gauges.microRamRoutines
        << ", \"windowFill\": " << sample.gauges.windowFill << "}}";
}

void
appendHistogram(std::ostringstream &out,
                const OccupancyHistogram &hist)
{
    out << "{\"name\": \"" << hist.name()
        << "\", \"capacity\": " << hist.capacity()
        << ", \"bucketWidth\": " << hist.bucketWidth()
        << ", \"samples\": " << hist.samples()
        << ", \"min\": " << hist.minValue()
        << ", \"max\": " << hist.maxValue()
        << ", \"sum\": " << hist.sum() << ", \"buckets\": [";
    const std::vector<uint64_t> &buckets = hist.buckets();
    for (size_t i = 0; i < buckets.size(); i++)
        out << (i ? ", " : "") << buckets[i];
    out << "]}";
}

} // namespace

std::string
seriesDocumentJson(const MetricsSeries &series,
                   const std::string &workload,
                   const std::string &config)
{
    std::ostringstream out;
    out << "{\n  \"schema\": \"" << kSeriesSchema
        << "\",\n  \"workload\": \"" << workload
        << "\",\n  \"config\": \"" << config
        << "\",\n  \"interval\": " << series.interval
        << ",\n  \"samples\": [";
    for (size_t i = 0; i < series.samples.size(); i++) {
        out << (i ? "," : "") << "\n    ";
        appendSample(out, series.samples[i]);
    }
    out << "\n  ],\n  \"histograms\": [";
    for (size_t i = 0; i < series.histograms.size(); i++) {
        out << (i ? "," : "") << "\n    ";
        appendHistogram(out, series.histograms[i]);
    }
    out << "\n  ]\n}\n";
    return out.str();
}

bool
writeSeriesFile(const std::string &path, const MetricsSeries &series,
                const std::string &workload, const std::string &config)
{
    return writeFileAtomic(
        path, seriesDocumentJson(series, workload, config));
}

} // namespace sim
} // namespace ssmt
