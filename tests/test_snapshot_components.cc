/**
 * @file
 * SnapshotWriter/SnapshotReader unit tests plus per-component
 * round-trips for the substrate layers (isa, bpred, vpred, memory,
 * cpu helpers, sim).
 *
 * The universal round-trip assertion: exercise a component, save it,
 * restore into a freshly constructed instance with the same
 * configuration, and require the re-saved document to be
 * byte-identical — the serialization is canonical, so byte equality
 * is state equality. Behavioral spot checks ride along to catch a
 * field that round-trips but is never actually used.
 */

#include <gtest/gtest.h>

#include <string>

#include "bpred/frontend_predictor.hh"
#include "bpred/gshare.hh"
#include "bpred/hybrid.hh"
#include "bpred/pas.hh"
#include "bpred/ras.hh"
#include "bpred/target_cache.hh"
#include "cpu/fu_pool.hh"
#include "isa/executor.hh"
#include "isa/memory_image.hh"
#include "memory/hierarchy.hh"
#include "sim/faultinject.hh"
#include "sim/machine_config.hh"
#include "sim/metrics.hh"
#include "sim/sim_error.hh"
#include "sim/snapshot.hh"
#include "vpred/value_predictor.hh"

namespace
{

using namespace ssmt;

template <typename T>
std::string
snapText(const T &t, uint64_t clock = 0)
{
    sim::SnapshotWriter w;
    w.setClock(clock);
    w.beginObject();
    t.save(w);
    w.endObject();
    return w.text();
}

template <typename T>
void
snapRestore(T &t, const std::string &text, uint64_t clock = 0)
{
    sim::SnapshotReader r(text);
    r.setClock(clock);
    t.restore(r);
}

/** exercise -> save -> restore into @p fresh -> re-save identical. */
template <typename T>
std::string
roundTrip(const T &saved, T &fresh, uint64_t clock = 0)
{
    std::string text = snapText(saved, clock);
    snapRestore(fresh, text, clock);
    EXPECT_EQ(snapText(fresh, clock), text);
    return text;
}

// ---- Writer / Reader ----

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

TEST(SnapshotWriter, U64ArrayAndHexWords)
{
    const uint64_t words[2] = {0x0123456789abcdefull, 1};
    sim::SnapshotWriter w;
    w.beginObject();
    w.u64Array("v", words, 2);
    w.hexWords("h", words, 2);
    w.endObject();

    sim::SnapshotReader r(w.text());
    EXPECT_EQ(r.u64Array("v"), (std::vector<uint64_t>{words[0], 1}));
    uint64_t out[2] = {};
    r.hexWords("h", out, 2);
    EXPECT_EQ(out[0], words[0]);
    EXPECT_EQ(out[1], words[1]);
}

TEST(SnapshotReader, SignedValuesViaTwosComplement)
{
    sim::SnapshotWriter w;
    w.beginObject();
    w.i64("neg", -42);
    w.endObject();
    sim::SnapshotReader r(w.text());
    EXPECT_EQ(r.i64("neg"), -42);
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
    EXPECT_THROW(r.requireSize("pin", 3, 4), sim::SimError);
}

// ---- bpred ----

TEST(SnapshotRoundTrip, Gshare)
{
    bpred::Gshare a(1024);
    for (uint64_t pc = 0; pc < 200; pc++)
        a.update(pc * 4, (pc % 3) == 0);
    bpred::Gshare b(1024);
    roundTrip(a, b);
    EXPECT_EQ(b.history(), a.history());
    EXPECT_EQ(b.predict(40), a.predict(40));
}

TEST(SnapshotRoundTrip, PasAndHybrid)
{
    bpred::Pas pa(64, 8, 1024);
    bpred::Hybrid ha(1024, 512);
    for (uint64_t pc = 0; pc < 300; pc++) {
        pa.update(pc * 4, (pc & 1) != 0);
        ha.update(pc * 4, (pc % 5) < 2);
    }
    bpred::Pas pb(64, 8, 1024);
    roundTrip(pa, pb);
    EXPECT_EQ(pb.localHistory(8), pa.localHistory(8));

    bpred::Hybrid hb(1024, 512);
    roundTrip(ha, hb);
    EXPECT_EQ(hb.predictions(), ha.predictions());
    EXPECT_EQ(hb.mispredictions(), ha.mispredictions());
    EXPECT_EQ(hb.predict(12), ha.predict(12));
}

TEST(SnapshotRoundTrip, BtbRasTargetCache)
{
    bpred::Ras ra(8);
    for (uint64_t i = 0; i < 11; i++)   // wraps past the depth
        ra.push(1000 + i);
    ra.pop();
    bpred::Ras rb(8);
    roundTrip(ra, rb);
    EXPECT_EQ(rb.size(), ra.size());
    EXPECT_EQ(rb.top(), ra.top());

    bpred::TargetCache ta(512);
    for (uint64_t pc = 0; pc < 60; pc++)
        ta.update(pc * 4, pc * 2 + 7);
    bpred::TargetCache tb(512);
    roundTrip(ta, tb);
    EXPECT_EQ(tb.predict(20), ta.predict(20));
}

TEST(SnapshotRoundTrip, FrontEndPredictor)
{
    bpred::FrontEndPredictor a(1024, 512, 512, 8);
    isa::Inst beq;
    beq.op = isa::Opcode::Beq;
    beq.rs1 = 1;
    beq.rs2 = 2;
    beq.imm = 64;
    isa::Inst jr;
    jr.op = isa::Opcode::Jr;
    jr.rs1 = 3;
    for (uint64_t i = 0; i < 150; i++) {
        a.predictAndTrain(i % 17, beq, (i % 3) == 0, 64);
        a.predictAndTrain(200 + (i % 5), jr, true, 300 + (i % 7));
    }
    bpred::FrontEndPredictor b(1024, 512, 512, 8);
    roundTrip(a, b);
    EXPECT_EQ(b.condPredictions(), a.condPredictions());
    EXPECT_EQ(b.condMispredicts(), a.condMispredicts());
    EXPECT_EQ(b.indirectMispredicts(), a.indirectMispredicts());
    EXPECT_EQ(b.direction().predict(5), a.direction().predict(5));
}

// ---- vpred / cpu / memory / isa ----

TEST(SnapshotRoundTrip, ValuePredictor)
{
    vpred::ValuePredictor a(256, 7, 4);
    for (uint64_t i = 0; i < 80; i++)
        a.train(24, 100 + 8 * i);       // clean stride
    a.train(32, 5);
    a.train(32, 11);
    vpred::ValuePredictor b(256, 7, 4);
    roundTrip(a, b);
    EXPECT_EQ(b.trainings(), a.trainings());
    EXPECT_EQ(b.predict(24, 2), a.predict(24, 2));
    EXPECT_EQ(b.confident(24), a.confident(24));
    EXPECT_EQ(b.stride(32), a.stride(32));
}

TEST(SnapshotRoundTrip, FuPoolCarriesTheClock)
{
    cpu::FuPool a(4);
    for (uint64_t i = 0; i < 30; i++)
        a.schedule(100 + i / 8, 100);
    cpu::FuPool b(4);
    roundTrip(a, b, /*clock=*/100);
    EXPECT_EQ(b.slotsGranted(), a.slotsGranted());
    EXPECT_EQ(b.schedule(104, 100), a.schedule(104, 100));
}

TEST(SnapshotRoundTrip, FuPoolGrownRestoresIntoAFreshPool)
{
    // 100 live claims 10,000 cycles apart grow the ring to 2,048
    // slots; a freshly built pool must grow the same way on restore
    // and then grant exactly what the saved pool grants.
    cpu::FuPool a(2);
    const uint64_t now = 50;
    for (uint64_t i = 0; i < 100; i++)
        a.schedule(now + 10000 * i, now);
    ASSERT_EQ(a.ringSlots(), 2048u);
    cpu::FuPool b(2);
    roundTrip(a, b, now);
    EXPECT_EQ(b.ringSlots(), a.ringSlots());
    for (uint64_t i = 0; i < 100; i++)
        for (int k = 0; k < 2; k++)
            EXPECT_EQ(b.schedule(now + 10000 * i, now),
                      a.schedule(now + 10000 * i, now));
}

TEST(SnapshotRoundTrip, FuPoolRejectsClaimsOutsideTheLiveSpan)
{
    cpu::FuPool a(2);
    a.schedule(120, 100);
    a.schedule(130, 100);
    const std::string text = snapText(a, /*clock=*/100);
    cpu::FuPool b(2);
    auto rejects = [&](const std::string &doc) {
        try {
            snapRestore(b, doc, /*clock=*/100);
        } catch (const sim::SimError &err) {
            return err.code() == sim::ErrorCode::ParseError;
        }
        return false;
    };
    auto with = [&](const std::string &from, const std::string &to) {
        std::string doc = text;
        size_t at = doc.find(from);
        EXPECT_NE(at, std::string::npos) << doc;
        return doc.replace(at, from.size(), to);
    };
    EXPECT_FALSE(rejects(text));
    EXPECT_TRUE(rejects(with("[120,130]", "[99,130]")));      // before clock
    EXPECT_TRUE(rejects(with("[120,130]", "[130,120]")));     // unordered
    EXPECT_TRUE(rejects(with("[120,130]", "[120,120]")));     // duplicate
    EXPECT_TRUE(rejects(with("[120,130]",
                             "[120,1099511627876]")));         // 2^40 away
    EXPECT_TRUE(rejects(with("\"used\":[1,1]", "\"used\":[1,3]")));
}

TEST(SnapshotRoundTrip, CacheAndHierarchy)
{
    memory::Cache ca("l1", 4096, 2, 64);
    for (uint64_t i = 0; i < 200; i++)
        ca.access(i * 72);
    memory::Cache cb("l1", 4096, 2, 64);
    roundTrip(ca, cb);
    EXPECT_EQ(cb.hits(), ca.hits());
    EXPECT_EQ(cb.misses(), ca.misses());
    EXPECT_EQ(cb.probe(72), ca.probe(72));

    memory::Hierarchy ha;
    for (uint64_t i = 0; i < 100; i++) {
        ha.read(i * 96);
        ha.write(i * 128);
        ha.fetch(i * 64);
    }
    memory::Hierarchy hb;
    roundTrip(ha, hb);
    EXPECT_EQ(hb.l1d().misses(), ha.l1d().misses());
    EXPECT_EQ(hb.l2().hits(), ha.l2().hits());
}

TEST(SnapshotRoundTrip, RegFileAndMemoryImage)
{
    isa::RegFile ra;
    for (isa::RegIndex i = 1; i < isa::kNumRegs; i++)
        ra.write(i, 0x1000 + i);
    isa::RegFile rb;
    roundTrip(ra, rb);
    EXPECT_TRUE(rb == ra);

    isa::MemoryImage ma;
    ma.store(64, 0xdeadbeef);
    ma.store(8 * isa::MemoryImage::kWordsPerPage + 8, 42);  // 2nd page
    isa::MemoryImage mb;
    roundTrip(ma, mb);
    EXPECT_EQ(mb.numPages(), ma.numPages());
    EXPECT_EQ(mb.load(64), ma.load(64));
    EXPECT_EQ(mb.load(8 * isa::MemoryImage::kWordsPerPage + 8),
              uint64_t{42});
}

// ---- sim ----

TEST(SnapshotRoundTrip, OccupancyHistogram)
{
    sim::OccupancyHistogram a("fill", 128, 8);
    for (uint64_t v = 0; v <= 128; v += 3)
        a.add(v);
    sim::OccupancyHistogram b("fill", 128, 8);
    roundTrip(a, b);
    EXPECT_EQ(b.samples(), a.samples());
    EXPECT_EQ(b.buckets(), a.buckets());
    EXPECT_EQ(b.minValue(), a.minValue());
    EXPECT_EQ(b.maxValue(), a.maxValue());
    EXPECT_DOUBLE_EQ(b.mean(), a.mean());
}

TEST(SnapshotRoundTrip, IntervalSamplerSeriesByteIdentical)
{
    sim::MachineConfig cfg;
    sim::IntervalSampler a(100, cfg);
    sim::Stats stats;
    sim::OccupancyGauges gauges;
    for (uint64_t c = 100; c <= 500; c += 100) {
        stats.cycles = c;
        stats.retiredInsts = c * 2;
        gauges.prbEntries = c % 13;
        gauges.windowFill = c % 7;
        a.sample(c, stats, gauges);
    }
    sim::IntervalSampler b(100, cfg);
    roundTrip(a, b);
    EXPECT_EQ(sim::seriesJson(b.series()), sim::seriesJson(a.series()));
}

TEST(SnapshotRoundTrip, FaultInjectorRngStream)
{
    sim::FaultPlan plan;
    plan.site = sim::FaultSite::PredCacheFlip;
    plan.seed = 99;
    plan.count = 8;
    plan.period = 10;
    sim::FaultInjector a(plan);
    for (uint64_t c = 0; c < 200; c++) {
        if (a.shouldFire(c)) {
            a.roll();
            a.noteInjected();
        }
    }
    sim::FaultInjector b(plan);
    roundTrip(a, b);
    EXPECT_EQ(b.stats().injected, a.stats().injected);
    // The restored stream must continue exactly where the saved one
    // stopped — same rolls, same firing schedule.
    sim::FaultInjector c2(plan);
    snapRestore(c2, snapText(a));
    for (uint64_t c = 200; c < 400; c++) {
        bool fireB = b.shouldFire(c);
        bool fireC = c2.shouldFire(c);
        ASSERT_EQ(fireB, fireC) << "cycle " << c;
        if (fireB) {
            ASSERT_EQ(b.roll(), c2.roll());
            b.noteInjected();
            c2.noteInjected();
        }
    }
}

} // namespace
