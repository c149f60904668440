/**
 * @file
 * Tests for the published results: the string escaper every writer
 * shares must round-trip, and every committed results/ file must be
 * the complete ssmt-campaign-v1 manifest of the campaign it embeds.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/bench_json.hh"
#include "sim/campaign.hh"
#include "sim/fsio.hh"
#include "sim/golden.hh"
#include "sim/json_text.hh"
#include "sim/snapshot.hh"

namespace
{

using namespace ssmt;

TEST(BenchJsonTest, EscapedStringsRoundTrip)
{
    std::string nasty = "a\"b\\c\nd\te\rf";
    nasty += '\x01';                    // control char -> \\u escape

    // SnapshotWriter appends through the same escaper.
    sim::SnapshotWriter w;
    w.beginObject();
    w.str("label", nasty);
    w.endObject();
    EXPECT_NE(w.text().find(sim::BenchJson::escape(nasty)),
              std::string::npos);
    EXPECT_EQ(sim::SnapshotReader(w.text()).str("label"), nasty);
}

TEST(CommittedResults, EveryFileIsACompleteCampaignManifest)
{
    // One schema for every published measurement: each file under
    // results/ is the manifest of a finished campaign with no failed
    // cell, named after its spec, listing exactly the cells that spec
    // enumerates, each with the full counter set.
    const std::string dir = SSMT_RESULTS_DIR;
    const size_t counters = sim::statsValues(sim::Stats{}).size();
    std::vector<std::string> files = sim::listDir(dir);
    ASSERT_FALSE(files.empty()) << "no files in " << dir;
    for (const std::string &file : files) {
        SCOPED_TRACE(file);
        const std::string text = sim::readFileOrEmpty(dir + "/" + file);
        sim::JsonValue root;
        std::string err;
        if (!sim::parseJson(text, root, &err)) {
            ADD_FAILURE() << "does not parse: " << err;
            continue;
        }
        EXPECT_EQ(root.str("schema"), sim::kCampaignSchema);

        // The embedded spec is canonical specJson text: cut it out
        // and check that it reads back to the same bytes.
        const size_t from = text.find("\"spec\":");
        const size_t to = text.find(",\"cells\":[");
        ASSERT_NE(from, std::string::npos);
        ASSERT_NE(to, std::string::npos);
        const std::string spec_text = text.substr(from + 7, to - from - 7);
        sim::CampaignSpec spec = sim::parseSpec(spec_text);
        EXPECT_EQ(sim::specJson(spec), spec_text);
        EXPECT_EQ(file, spec.name + ".json");

        const std::vector<sim::CampaignCell> want =
            sim::campaignCells(spec);
        const sim::JsonValue *cells = root.find("cells");
        const sim::JsonValue *totals = root.find("totals");
        ASSERT_NE(cells, nullptr);
        ASSERT_NE(totals, nullptr);
        EXPECT_EQ(totals->u64("cells", 0), want.size());
        EXPECT_EQ(totals->u64("failed", 1), 0u);
        ASSERT_EQ(cells->items.size(), want.size());
        for (size_t i = 0; i < want.size(); i++) {
            const sim::JsonValue &cell = cells->items[i];
            EXPECT_EQ(cell.str("name"), want[i].name);
            EXPECT_EQ(cell.str("errorCode"), "none") << want[i].name;
            const sim::JsonValue *values = cell.find("counters");
            ASSERT_NE(values, nullptr) << want[i].name;
            ASSERT_EQ(values->items.size(), counters) << want[i].name;
            for (const sim::JsonValue &value : values->items)
                EXPECT_TRUE(value.isInteger) << want[i].name;
        }
    }
}

} // namespace
