/**
 * @file
 * Unit tests for the canonical JSON writer and reader
 * (SnapshotWriter/SnapshotReader): exact output bytes, integer
 * arrays that round-trip, and typed ParseError failures.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/sim_error.hh"
#include "sim/snapshot.hh"

namespace
{

using namespace ssmt;

TEST(SnapshotWriter, CanonicalNesting)
{
    sim::SnapshotWriter w;
    w.beginObject();
    w.u64("a", 1);
    w.beginObject("inner");
    w.boolean("flag", true);
    w.str("name", "x\"y");
    w.endObject();
    w.beginArray("items");
    w.u64(7);
    w.u64(8);
    w.endArray();
    w.endObject();
    EXPECT_EQ(w.text(),
              "{\"a\":1,\"inner\":{\"flag\":true,\"name\":"
              "\"x\\\"y\"},\"items\":[7,8]}");
}

TEST(SnapshotWriter, U64ArrayRoundTrips)
{
    const std::vector<uint64_t> words = {0x0123456789abcdefull, ~0ull};
    sim::SnapshotWriter w;
    w.beginObject();
    w.u64Array("v", words);
    w.endObject();

    sim::SnapshotReader r(w.text());
    EXPECT_EQ(r.u64Array("v"), words);
}

TEST(SnapshotReader, MalformedDocumentThrowsParseError)
{
    try {
        sim::SnapshotReader r("{\"a\": ");
        FAIL() << "expected SimError";
    } catch (const sim::SimError &err) {
        EXPECT_EQ(err.code(), sim::ErrorCode::ParseError);
    }
}

TEST(SnapshotReader, MissingKeyAndSizePinThrow)
{
    sim::SnapshotReader r("{\"a\": 1}");
    EXPECT_TRUE(r.has("a"));
    EXPECT_FALSE(r.has("b"));
    EXPECT_THROW(r.u64("b"), sim::SimError);
}

} // namespace
