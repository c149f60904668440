/**
 * @file
 * Centralized worker-count resolution.
 *
 * std::thread::hardware_concurrency() may legally return 0 ("not
 * computable"), and before this header four call sites consulted it
 * independently — BatchRunner, the --jobs auto spelling in
 * cli_common, and the hostThreads metadata in bench_json /
 * throughput_report — each with (or without) its own fallback. The
 * two helpers here are the single implementation:
 *
 *   hostThreads()        hardware_concurrency with an explicit >= 1
 *                        fallback; use for "how parallel is this
 *                        host" metadata and the --jobs auto spelling.
 *
 *   resolveJobs(request) the worker-count resolution chain every
 *                        parallel consumer shares (highest priority
 *                        first): an explicit non-zero request, the
 *                        SSMT_JOBS environment variable, then
 *                        hostThreads().
 */

#ifndef SSMT_SIM_JOBS_HH
#define SSMT_SIM_JOBS_HH

namespace ssmt
{
namespace sim
{

/** std::thread::hardware_concurrency(), never 0. */
unsigned hostThreads();

/** Resolve a requested worker count: @p requested if non-zero, else
 *  SSMT_JOBS (when set to a positive integer), else hostThreads().
 *  Always >= 1. */
unsigned resolveJobs(unsigned requested);

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_JOBS_HH
