#include "sim/job_codec.hh"

#include "sim/golden.hh"
#include "sim/logging.hh"
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
    SSMT_ASSERT(checkpoint.empty() && final_attempt,
                "every job runs once: no checkpoint, always final");
    SnapshotWriter w;
    w.beginObject();
    w.str("schema", kJobResultSchema);
    w.str("errorCode", errorCodeName(result.errorCode));
    w.str("error", result.error);
    w.u64("attempts", result.attempts);
    w.u64Array("stats", statsValues(result.stats));

    w.beginObject("faults");
    w.u64("armed", result.faults.armed);
    w.u64("injected", result.faults.injected);
    w.u64("noTarget", result.faults.noTarget);
    w.endObject();
    w.endObject();
    return w.text();
}

void
decodeJobResult(const std::string &text, const MachineConfig &,
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
    statsFromValues(result->stats, r.u64Array("stats"));

    r.enter("faults");
    result->faults.armed = r.u64("armed");
    result->faults.injected = r.u64("injected");
    result->faults.noTarget = r.u64("noTarget");
    r.leave();

    *checkpoint = "";
    *final_attempt = true;
    result->hostSeconds = 0.0;
}

} // namespace sim
} // namespace ssmt
