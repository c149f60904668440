/**
 * @file
 * Job-result decoder resilience: decodeJobResult reads every isolated
 * worker's reply and every result-store file, so garbage, truncated,
 * bit-flipped, duplicated or spliced documents must always surface as
 * SimError(ParseError) — never a crash, a hang or any other exception.
 * A flip inside a numeric payload may decode (there is deliberately
 * no checksum: the store key binds identity). Runs under the
 * tier2-sanitize preset so ASan/UBSan also vet every rejection path.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/batch_runner.hh"
#include "sim/job_codec.hh"
#include "sim/machine_config.hh"
#include "sim/sim_error.hh"
#include "sim/sim_runner.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

class JobDocumentCorrupt : public ::testing::Test
{
  protected:
    /** One microthread run of the synthetic kernel with a short
     *  sample interval and a small trace ring, so the document
     *  carries stats, a series and a trace and stays small enough to
     *  decode every prefix of. */
    static void
    SetUpTestSuite()
    {
        cfg_.mode = sim::Mode::Microthread;
        cfg_.sampleInterval = 4000;
        cfg_.traceCapacity = 12;
        isa::Program prog = workloads::makeSynthetic({});
        sim::BatchResult result;
        result.attempts = 1;
        result.stats = sim::runProgramChecked(
            prog, cfg_, "corrupt-corpus", 0, &result.faults,
            &result.artifacts);
        ASSERT_GT(result.artifacts.series.samples.size(), 1u);
        ASSERT_FALSE(result.artifacts.trace.empty());
        doc_ = sim::encodeJobResult(result, "", true);
        ASSERT_EQ(decodeVerdict(doc_), sim::ErrorCode::None);
    }

    /** Decode @p doc. @return ErrorCode::None when it decoded, the
     *  code of the SimError it raised otherwise. Any other exception
     *  escapes, and the harness reports it as the failure it is. */
    static sim::ErrorCode
    decodeVerdict(const std::string &doc)
    {
        sim::BatchResult out;
        std::string checkpoint;
        bool final_attempt = false;
        try {
            sim::decodeJobResult(doc, cfg_, &out, &checkpoint,
                                 &final_attempt);
            return sim::ErrorCode::None;
        } catch (const sim::SimError &err) {
            return err.code();
        }
    }

    static sim::MachineConfig cfg_;
    static std::string doc_;
};

sim::MachineConfig JobDocumentCorrupt::cfg_;
std::string JobDocumentCorrupt::doc_;

TEST_F(JobDocumentCorrupt, GarbageDocumentsAreParseErrors)
{
    const char *corpus[] = {
        "",
        "   ",
        "not json",
        "{",
        "{}",
        "[1, 2, 3]",
        "{\"schema\": \"wrong\"}",
        "{\"schema\": \"ssmt-job-result-v1\"}",
        "{\"schema\": \"ssmt-job-result-v1\", \"errorCode\": }",
        "{\"schema\": \"ssmt-job-result-v1\", \"errorCode\": \"bogus\"}",
        "\xff\xfe\x00\x01 binary noise",
    };
    for (const char *doc : corpus) {
        SCOPED_TRACE(std::string(doc).substr(0, 40));
        EXPECT_EQ(decodeVerdict(doc), sim::ErrorCode::ParseError);
    }
}

TEST_F(JobDocumentCorrupt, EveryTruncationIsRejected)
{
    // No proper prefix of a canonical document is one: the closing
    // brace comes last.
    for (size_t len = 0; len < doc_.size(); len++) {
        ASSERT_EQ(decodeVerdict(doc_.substr(0, len)),
                  sim::ErrorCode::ParseError)
            << "truncated to " << len << " of " << doc_.size()
            << " bytes";
    }
}

TEST_F(JobDocumentCorrupt, BitFlipsNeverEscapeTheErrorContract)
{
    // Flip one bit at every byte, cycling through the bit positions,
    // then all eight bits of the first 64 bytes (the schema and error
    // fields). A flip either decodes or raises ParseError.
    std::vector<std::pair<size_t, int>> flips;
    for (size_t pos = 0; pos < doc_.size(); pos++)
        flips.push_back({pos, static_cast<int>(pos % 8)});
    for (size_t pos = 0; pos < 64 && pos < doc_.size(); pos++)
        for (int bit = 0; bit < 8; bit++)
            if (bit != static_cast<int>(pos % 8))
                flips.push_back({pos, bit});

    size_t rejected = 0, decoded = 0;
    for (const auto &[pos, bit] : flips) {
        std::string doc = doc_;
        doc[pos] = static_cast<char>(doc[pos] ^ (1u << bit));
        sim::ErrorCode code = decodeVerdict(doc);
        if (code == sim::ErrorCode::None) {
            decoded++;
            continue;
        }
        rejected++;
        ASSERT_EQ(code, sim::ErrorCode::ParseError)
            << "flip bit " << bit << " at " << pos << ": "
            << sim::errorCodeName(code);
    }
    // Structure, keys and the schema tag make up enough of the
    // document that many flips must be caught; digits may decode.
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(decoded, 0u);
}

TEST_F(JobDocumentCorrupt, DuplicatedAndSplicedDocumentsAreRejected)
{
    EXPECT_EQ(decodeVerdict(doc_ + doc_), sim::ErrorCode::ParseError);
    EXPECT_EQ(decodeVerdict(doc_ + "garbage tail"),
              sim::ErrorCode::ParseError);
    // Close the document early at a key boundary: structurally valid
    // JSON is not enough, the decoder must still demand every field.
    for (const char *key : {"\"stats\"", "\"faults\"", "\"series\"",
                            "\"trace\"", "\"checkpoint\""}) {
        size_t at = doc_.find(key);
        ASSERT_NE(at, std::string::npos) << key;
        ASSERT_GT(at, 1u);
        // Drop the comma before the key too.
        EXPECT_EQ(decodeVerdict(doc_.substr(0, at - 1) + "}"),
                  sim::ErrorCode::ParseError)
            << "closed before " << key;
    }
    // Splice the tail of the document onto its own head, one sample
    // apart: the series nesting no longer closes where it should.
    size_t first = doc_.find("{\"cycle\":");
    size_t second = doc_.find("{\"cycle\":", first + 1);
    ASSERT_NE(second, std::string::npos);
    EXPECT_EQ(decodeVerdict(doc_.substr(0, second) +
                            doc_.substr(first + 1)),
              sim::ErrorCode::ParseError);
}

TEST_F(JobDocumentCorrupt, RetiredKeysAreIgnored)
{
    // A store written before the machine checkpoint and the warning
    // arrays were retired still decodes: fields are read by key.
    const std::string anchor = "\"seriesInterval\"";
    size_t at = doc_.find(anchor);
    ASSERT_NE(at, std::string::npos);
    const std::string old_doc =
        doc_.substr(0, at) +
        "\"snapshot\":\"\",\"snapshotCycle\":0,\"warnings\":[\"w\"]," +
        doc_.substr(at);
    sim::BatchResult out;
    std::string checkpoint;
    bool final_attempt = false;
    sim::decodeJobResult(old_doc, cfg_, &out, &checkpoint,
                         &final_attempt);
    EXPECT_EQ(sim::encodeJobResult(out, checkpoint, final_attempt),
              doc_);
}

} // namespace
