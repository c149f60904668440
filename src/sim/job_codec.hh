/**
 * @file
 * ssmt-job-result-v1: the canonical wire format an isolated child
 * process uses to ship one BatchResult back to its parent (and the
 * document format the campaign result store keeps on disk).
 *
 * Canonical (sim/snapshot.hh's writer): integers only, fixed field
 * order, Stats as a sim::statsValues array. A document carries the
 * job's error, its end-of-run counters and its fault tally — nothing
 * a campaign does not read back. Two identical runs encode
 * byte-identically regardless of host, worker count, or whether they
 * ran in-process or in a child — which is what makes "isolated ==
 * in-process" and "resumed manifest == uninterrupted manifest"
 * testable as string equality.
 *
 * Deliberately NOT encoded:
 *   - hostSeconds (wall-clock is host noise; the parent re-stamps),
 *   - a run's interval series and pipeline trace (ssmt_trace gets
 *     them from sim::runProgramChecked's RunArtifacts, in-process),
 *   - warnings (they go to stderr; a document holds only what the
 *     simulation computed).
 * Fields are read by key, so an older document that still carries a
 * `warnings` array, the retired machine-checkpoint keys (`snapshot`,
 * `snapshotCycle`), the series and trace sections or the vestigial
 * `final` and `checkpoint` keys decodes.
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
 * @param checkpoint vestigial: must be "" (jobs run once and nothing
 *        resumes). Kept, with @p final_attempt, because the
 *        benchmark calls this signature; neither is written
 * @param final_attempt vestigial: must be true
 */
std::string encodeJobResult(const BatchResult &result,
                            const std::string &checkpoint,
                            bool final_attempt);

/**
 * Inverse of encodeJobResult. Throws SimError(ParseError) on a
 * malformed, truncated or schema-mismatched document; @p result is
 * then unspecified. result.hostSeconds is left at 0 for the caller
 * to stamp. @p config, @p checkpoint and @p final_attempt are
 * vestigial, kept because the benchmark calls this signature:
 * @p config is not read, and the out-parameters receive "" and true.
 */
void decodeJobResult(const std::string &text,
                     const MachineConfig &config, BatchResult *result,
                     std::string *checkpoint, bool *final_attempt);

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_JOB_CODEC_HH
