/**
 * @file
 * Interval time-series metrics: the observability substrate the
 * aggregate end-of-run Stats cannot provide.
 *
 * The paper's Figures 7-12 are all end-of-run numbers, but the
 * mechanism's interesting behaviour — promotion/demotion churn,
 * spawn-abort bursts, Prediction Cache timeliness — is
 * phase-dependent. An IntervalSampler snapshots the full Stats
 * counter set every N cycles, together with occupancy *gauges*
 * (point-in-time fill levels of the PRB, microcontexts, Prediction
 * Cache, MicroRAM and instruction window) that no cumulative counter
 * can reconstruct. The same hook accumulates per-component occupancy
 * histograms, so "how full does the window actually run?" has an
 * answer without retaining every sample.
 *
 * Everything here is deterministic: samples are taken at fixed cycle
 * multiples of a single-core simulation, so a series is byte-identical
 * across BatchRunner worker counts, and the serialized form
 * (`ssmt-series-v1`) is canonical — integers only for counters and
 * gauges, fixed field order via sim::flattenStats.
 */

#ifndef SSMT_SIM_METRICS_HH
#define SSMT_SIM_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine_config.hh"
#include "sim/stats.hh"

namespace ssmt
{
namespace sim
{

extern const char kSeriesSchema[];  ///< "ssmt-series-v1"

/** Point-in-time fill levels of the core's bounded structures. */
struct OccupancyGauges
{
    uint64_t prbEntries = 0;            ///< Post-Retirement Buffer fill
    uint64_t liveMicrocontexts = 0;     ///< active microthread contexts
    uint64_t pcacheValidEntries = 0;    ///< Prediction Cache valid ways
    uint64_t microRamRoutines = 0;      ///< installed routines
    uint64_t windowFill = 0;            ///< ROB + in-flight micro-ops
};

/** One time-series point: cycle, full counter set, gauges. */
struct Sample
{
    uint64_t cycle = 0;
    Stats stats;
    OccupancyGauges gauges;
};

/**
 * Fixed-bucket occupancy histogram over [0, capacity]. Buckets are
 * linear with width ceil((capacity + 1) / numBuckets); the last
 * bucket additionally absorbs any value above capacity (which the
 * structural invariants forbid, but a histogram must not drop data).
 */
class OccupancyHistogram
{
  public:
    OccupancyHistogram() = default;
    OccupancyHistogram(std::string name, uint64_t capacity,
                       uint32_t num_buckets = 16);

    void add(uint64_t value);

    const std::string &name() const { return name_; }
    uint64_t capacity() const { return capacity_; }
    uint64_t bucketWidth() const { return bucketWidth_; }
    const std::vector<uint64_t> &buckets() const { return buckets_; }
    uint64_t samples() const { return samples_; }
    uint64_t minValue() const { return samples_ ? min_ : 0; }
    uint64_t maxValue() const { return max_; }
    uint64_t sum() const { return sum_; }

    /** Mean occupancy over all samples (0.0 when empty). */
    double
    mean() const
    {
        return samples_ ? static_cast<double>(sum_) /
                              static_cast<double>(samples_)
                        : 0.0;
    }

  private:
    std::string name_;
    uint64_t capacity_ = 0;
    uint64_t bucketWidth_ = 1;
    std::vector<uint64_t> buckets_;
    uint64_t samples_ = 0;
    uint64_t min_ = 0;
    uint64_t max_ = 0;
    uint64_t sum_ = 0;
};

/** A complete captured series: interval, samples, histograms. */
struct MetricsSeries
{
    /** Sampling interval in cycles; 0 = sampling was disabled. */
    uint64_t interval = 0;
    std::vector<Sample> samples;
    /** One histogram per gauge, in OccupancyGauges field order. */
    std::vector<OccupancyHistogram> histograms;

    bool enabled() const { return interval != 0; }
};

/**
 * The sampling hook the core drives: call due() every cycle (one
 * compare when disabled) and sample() when it fires; finalize() once
 * at end-of-run so the last sample equals the final Stats
 * byte-for-byte even when the run ends off-interval.
 */
class IntervalSampler
{
  public:
    /** @param interval cycles between samples; 0 disables.
     *  @param cfg provides the gauge capacities for the histograms. */
    IntervalSampler(uint64_t interval, const MachineConfig &cfg);

    bool enabled() const { return interval_ != 0; }

    bool
    due(uint64_t cycle) const
    {
        return interval_ != 0 && cycle % interval_ == 0;
    }

    /** Record one sample and feed the histograms. */
    void sample(uint64_t cycle, const Stats &stats,
                const OccupancyGauges &gauges);

    /**
     * Record the end-of-run point. If a regular sample already
     * landed on @p cycle its counters are replaced with the
     * finalized @p stats (the gauges and histograms keep the values
     * observed by the in-run hook); otherwise a final sample is
     * appended and counted.
     */
    void finalize(uint64_t cycle, const Stats &stats,
                  const OccupancyGauges &gauges);

    const MetricsSeries &series() const { return series_; }

  private:
    uint64_t interval_;
    MetricsSeries series_;
};

/**
 * Canonical ssmt-series-v1 artifact document of @p series, one
 * sample per line for diffability:
 *   {"schema": "ssmt-series-v1", "workload": ..., "config": ...,
 *    "interval": N,
 *    "samples": [{"cycle": C, "counters": {...}, "gauges": {...}}],
 *    "histograms": [{"name": ..., "capacity": ..., "bucketWidth": ...,
 *                    "samples": ..., "min": ..., "max": ..., "sum": ...,
 *                    "buckets": [...]}]}
 * Counters use sim::flattenStats order, so two identical simulations
 * serialize byte-identically.
 */
std::string seriesDocumentJson(const MetricsSeries &series,
                               const std::string &workload,
                               const std::string &config);

/** Write seriesDocumentJson to @p path. @return true on success. */
bool writeSeriesFile(const std::string &path,
                     const MetricsSeries &series,
                     const std::string &workload,
                     const std::string &config);

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_METRICS_HH
