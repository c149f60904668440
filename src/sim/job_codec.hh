/**
 * @file
 * ssmt-job-result-v1: the canonical wire format an isolated child
 * process uses to ship one BatchResult back to its parent (and the
 * document format the campaign result store keeps on disk).
 *
 * Canonical (sim/snapshot.hh's writer): integers only, fixed field
 * order, Stats as a sim::statsValues array, the metrics series in
 * the layout IntervalSampler::restore reads. Two identical runs
 * encode byte-identically regardless of host, worker count, or
 * whether they ran in-process or in a child — which is what makes
 * "isolated == in-process" and "resumed manifest == uninterrupted
 * manifest" testable as string equality.
 *
 * Deliberately NOT encoded:
 *   - hostSeconds (wall-clock is host noise; the parent re-stamps),
 *   - histogram/series geometry (reconstructed from the config),
 *   - warnings (they go to stderr; a document holds only what the
 *     simulation computed).
 * Fields are read by key, so an older document that still carries a
 * `warnings` array or the retired machine-checkpoint keys
 * (`snapshot`, `snapshotCycle`) decodes.
 */

#ifndef SSMT_SIM_JOB_CODEC_HH
#define SSMT_SIM_JOB_CODEC_HH

#include <string>

#include "sim/batch_runner.hh"

namespace ssmt
{
namespace sim
{

extern const char kJobResultSchema[];   ///< "ssmt-job-result-v1"

/**
 * Serialize one job's outcome.
 *
 * @param checkpoint vestigial: always "" (jobs run once and nothing
 *        resumes). Kept, with @p final_attempt, because the
 *        benchmark calls this signature
 * @param final_attempt vestigial: always true
 */
std::string encodeJobResult(const BatchResult &result,
                            const std::string &checkpoint,
                            bool final_attempt);

/**
 * Inverse of encodeJobResult. @p config must be the job's config: it
 * supplies the sampling interval and histogram geometry the series
 * decode is reconstructed against (geometry never travels). Throws
 * SimError(ParseError) on a malformed, truncated or
 * schema-mismatched document; @p result is then unspecified.
 * result.hostSeconds is left at 0 for the caller to stamp.
 * @p checkpoint and @p final_attempt receive the vestigial fields.
 */
void decodeJobResult(const std::string &text,
                     const MachineConfig &config, BatchResult *result,
                     std::string *checkpoint, bool *final_attempt);

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_JOB_CODEC_HH
