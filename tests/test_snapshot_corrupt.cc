/**
 * @file
 * Snapshot-reader resilience: feeding truncated, bit-flipped or
 * outright garbage documents into the resume path must always
 * surface as a catchable SimError — never a crash, hang, or
 * uncontrolled exception. Runs under the tier2-sanitize preset so
 * ASan/UBSan also vet every rejection path for memory errors.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cpu/ssmt_core.hh"
#include "sim/machine_config.hh"
#include "sim/sim_error.hh"
#include "sim/sim_runner.hh"
#include "sim/snapshot.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

class SnapshotCorrupt : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        prog_ = new isa::Program(workloads::makeSynthetic({}));
        cfg_.mode = sim::Mode::Microthread;
        sim::RunArtifacts artifacts;
        sim::runProgramChecked(*prog_, cfg_, "corrupt-corpus", 0,
                               nullptr, &artifacts, 2000);
        snapshot_ = artifacts.snapshot;
        ASSERT_FALSE(snapshot_.empty());
    }

    static void
    TearDownTestSuite()
    {
        delete prog_;
        prog_ = nullptr;
    }

    /** Resume from @p doc. @return the error code of the SimError it
     *  raised, or ErrorCode::None when the document restored and ran
     *  cleanly. Anything else (other exception types, crashes) fails
     *  the test. Drives restoreMachineSnapshot directly so even an
     *  empty document reaches the reader (runProgramChecked treats an
     *  empty resume text as "run fresh"), then finishes the run
     *  through the public resume path when the restore succeeded. */
    static sim::ErrorCode
    resumeVerdict(const std::string &doc)
    {
        try {
            cpu::SsmtCore core(*prog_, cfg_);
            sim::restoreMachineSnapshot(core, *prog_, cfg_, doc);
            sim::runProgramChecked(*prog_, cfg_, "corrupt", 0,
                                   nullptr, nullptr, 0, &doc);
            return sim::ErrorCode::None;
        } catch (const sim::SimError &err) {
            return err.code();
        }
        // Let any non-SimError exception escape: the harness reports
        // it as the failure it is.
    }

    /** Restore @p doc into a fresh core, without running it.
     *  @return the text of the ParseError it raised, or "" when the
     *  document was accepted. */
    static std::string
    restoreError(const std::string &doc)
    {
        cpu::SsmtCore core(*prog_, cfg_);
        try {
            sim::restoreMachineSnapshot(core, *prog_, cfg_, doc);
        } catch (const sim::SimError &err) {
            EXPECT_EQ(err.code(), sim::ErrorCode::ParseError)
                << err.what();
            return err.what();
        }
        return "";
    }

    /** snapshot_ with the number that follows @p key, at its first
     *  occurrence after @p anchor, replaced by @p value. */
    static std::string
    withNumber(const std::string &anchor, const std::string &key,
               uint64_t value)
    {
        size_t at = snapshot_.find(anchor);
        EXPECT_NE(at, std::string::npos) << anchor;
        at = snapshot_.find(key, at);
        EXPECT_NE(at, std::string::npos) << key;
        at += key.size();
        size_t end = snapshot_.find_first_not_of("0123456789", at);
        return snapshot_.substr(0, at) + std::to_string(value) +
               snapshot_.substr(end);
    }

    static isa::Program *prog_;
    static sim::MachineConfig cfg_;
    static std::string snapshot_;
};

isa::Program *SnapshotCorrupt::prog_ = nullptr;
sim::MachineConfig SnapshotCorrupt::cfg_;
std::string SnapshotCorrupt::snapshot_;

TEST_F(SnapshotCorrupt, GarbageDocumentsAreParseErrors)
{
    const char *corpus[] = {
        "",
        "   ",
        "not json",
        "{",
        "{}",
        "[1, 2, 3]",
        "{\"schema\": \"wrong\"}",
        "{\"schema\": \"ssmt-snapshot-v1\"}",
        "{\"schema\": \"ssmt-snapshot-v1\", \"cycle\": }",
        "\xff\xfe\x00\x01 binary noise",
    };
    for (const char *doc : corpus) {
        SCOPED_TRACE(std::string(doc).substr(0, 40));
        EXPECT_EQ(resumeVerdict(doc), sim::ErrorCode::ParseError);
    }
}

TEST_F(SnapshotCorrupt, EveryTruncationIsRejected)
{
    // Sweep prefixes of the real document, clustered near the start
    // (envelope) and sampled through the body. A truncated document
    // must never restore.
    std::vector<size_t> cuts;
    for (size_t len = 0; len < 64 && len < snapshot_.size(); len++)
        cuts.push_back(len);
    for (int i = 1; i < 64; i++)
        cuts.push_back(snapshot_.size() * i / 64);
    for (size_t tail = 1; tail <= 8; tail++)
        if (tail < snapshot_.size())
            cuts.push_back(snapshot_.size() - tail);

    for (size_t len : cuts) {
        SCOPED_TRACE("truncate to " + std::to_string(len) +
                     " bytes of " + std::to_string(snapshot_.size()));
        sim::ErrorCode code =
            resumeVerdict(snapshot_.substr(0, len));
        EXPECT_NE(code, sim::ErrorCode::None);
        EXPECT_TRUE(code == sim::ErrorCode::ParseError ||
                    code == sim::ErrorCode::ConfigInvalid)
            << sim::errorCodeName(code);
    }
}

TEST_F(SnapshotCorrupt, BitFlipsNeverEscapeTheErrorContract)
{
    // Flip a single bit at positions spread across the document.
    // Flips in structural bytes must be rejected as SimError; a flip
    // inside a numeric payload may legitimately restore (there is
    // deliberately no checksum — the store key binds identity) and
    // must then run to completion without tripping anything fatal.
    size_t flips = 0, rejected = 0, survived = 0;
    for (int i = 0; i < 96; i++) {
        size_t pos = (snapshot_.size() * i) / 96;
        std::string doc = snapshot_;
        doc[pos] = static_cast<char>(doc[pos] ^ (1u << (i % 8)));
        if (doc[pos] == snapshot_[pos])
            continue;
        SCOPED_TRACE("flip bit " + std::to_string(i % 8) + " at " +
                     std::to_string(pos));
        flips++;
        sim::ErrorCode code = resumeVerdict(doc);
        if (code == sim::ErrorCode::None) {
            survived++;
        } else {
            rejected++;
            EXPECT_TRUE(code == sim::ErrorCode::ParseError ||
                        code == sim::ErrorCode::ConfigInvalid ||
                        code == sim::ErrorCode::InvariantViolation)
                << sim::errorCodeName(code);
        }
    }
    EXPECT_GT(flips, 0u);
    // The envelope (schema/hash/fingerprint) plus JSON structure make
    // up enough of the document that most flips must be caught.
    EXPECT_GT(rejected, 0u);
    SUCCEED() << flips << " flips: " << rejected << " rejected, "
              << survived << " restored cleanly";
}

TEST_F(SnapshotCorrupt, DuplicatedAndSplicedDocumentsAreRejected)
{
    EXPECT_EQ(resumeVerdict(snapshot_ + snapshot_),
              sim::ErrorCode::ParseError);
    EXPECT_EQ(resumeVerdict(snapshot_ + "garbage tail"),
              sim::ErrorCode::ParseError);
    // Splice the tail of the doc onto its own head at a brace
    // boundary — structurally valid JSON is not enough; the reader
    // must still demand the full schema.
    size_t mid = snapshot_.find("\"machine\"");
    ASSERT_NE(mid, std::string::npos);
    EXPECT_NE(resumeVerdict(snapshot_.substr(0, mid) + "}"),
              sim::ErrorCode::None);
}

// The checks below guard indices the core uses unchecked after a
// restore. The fixture's snapshot has micro-ops in flight on context
// 0, which runs a routine; the bit-flip corpus never lands on them.

TEST_F(SnapshotCorrupt, MicroEventOnAMissingContextIsRejected)
{
    ASSERT_EQ(restoreError(snapshot_), "");
    std::string error = restoreError(withNumber(
        "\"microEvents\":[{", "\"ctx\":", cfg_.numMicrocontexts));
    EXPECT_NE(error.find("microEvents[0].ctx"), std::string::npos)
        << error;
}

TEST_F(SnapshotCorrupt, RoundRobinStartPastTheContextsIsRejected)
{
    ASSERT_EQ(restoreError(snapshot_), "");
    std::string error = restoreError(
        withNumber("\"microOpsInWindow\":", "\"rrStart\":",
                   cfg_.numMicrocontexts));
    EXPECT_NE(error.find("rrStart"), std::string::npos) << error;
}

TEST_F(SnapshotCorrupt, PredictedValuesMustCoverTheRoutine)
{
    ASSERT_EQ(restoreError(snapshot_), "");
    const std::string key = "\"predictedValues\":[";
    size_t at = snapshot_.find(key, snapshot_.find("\"hasThread\":true"));
    ASSERT_NE(at, std::string::npos);
    at += key.size();
    std::string error = restoreError(snapshot_.substr(0, at) + "0," +
                                     snapshot_.substr(at));
    EXPECT_NE(error.find("predictedValues"), std::string::npos)
        << error;
}

// The PRB's ring position and fill are trusted by every retirement:
// pushSlot writes ring_[head] and wraps only at the capacity exactly.

TEST_F(SnapshotCorrupt, PrbHeadPastTheRingIsRejected)
{
    ASSERT_EQ(restoreError(snapshot_), "");
    std::string error = restoreError(
        withNumber("\"prb\":{", "\"head\":", cfg_.prbEntries));
    EXPECT_NE(error.find("prb head"), std::string::npos) << error;
}

TEST_F(SnapshotCorrupt, PrbSizePastTheRingIsRejected)
{
    ASSERT_EQ(restoreError(snapshot_), "");
    std::string error = restoreError(
        withNumber("\"prb\":{", "\"size\":", cfg_.prbEntries + 1));
    EXPECT_NE(error.find("prb size"), std::string::npos) << error;
}

// Each completing micro-event decrements its context's opsInFlight and
// the window's microOpsInWindow, so both must count the events.

TEST_F(SnapshotCorrupt, OpsInFlightMustCountTheContextsEvents)
{
    ASSERT_EQ(restoreError(snapshot_), "");
    std::string error = restoreError(
        withNumber("\"contexts\":[", "\"opsInFlight\":", 0));
    EXPECT_NE(error.find("contexts[0].opsInFlight"), std::string::npos)
        << error;
}

TEST_F(SnapshotCorrupt, MicroOpsInWindowMustCountTheEvents)
{
    ASSERT_EQ(restoreError(snapshot_), "");
    std::string error = restoreError(
        withNumber("\"microEvents\":[", "\"microOpsInWindow\":", 0));
    EXPECT_NE(error.find("microOpsInWindow"), std::string::npos)
        << error;
}

} // namespace
