/**
 * @file
 * Centralized worker-count resolution.
 *
 * std::thread::hardware_concurrency() may legally return 0 ("not
 * computable"). BatchRunner, the --jobs auto spelling in cli_common
 * and perfbench's host line and defaults all need a worker or host
 * thread count; rather than each carrying its own fallback, they
 * share the two helpers here:
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
 *  SSMT_JOBS under --jobs's rules (decimal digits from 1 to the range
 *  of unsigned), else hostThreads(). SSMT_JOBS=auto means
 *  hostThreads(); any other value counts as unset, with one warning
 *  per process. Always >= 1. */
unsigned resolveJobs(unsigned requested);

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_JOBS_HH
