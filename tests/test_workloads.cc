/**
 * @file
 * Parameterized tests over the full 20-benchmark proxy suite:
 * termination, determinism, seed sensitivity, and plausible branch
 * behaviour for every workload.
 */

#include <gtest/gtest.h>

#include "isa/executor.hh"
#include "sim/path_profiler.hh"
#include "sim/sim_error.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;
using workloads::WorkloadParams;

class WorkloadSuite : public testing::TestWithParam<std::string>
{
  protected:
    isa::Program
    make(const WorkloadParams &p = {})
    {
        return workloads::makeWorkload(GetParam(), p);
    }
};

TEST_P(WorkloadSuite, TerminatesWithinBudget)
{
    isa::Program prog = make();
    isa::RegFile regs;
    isa::MemoryImage mem;
    prog.loadData(mem);
    uint64_t count = isa::run(prog, regs, mem, 20'000'000);
    EXPECT_LT(count, 20'000'000u) << "did not halt";
    // Substantial but bounded work at scale 1.
    EXPECT_GT(count, 50'000u);
    EXPECT_LT(count, 5'000'000u);
}

TEST_P(WorkloadSuite, DeterministicForFixedSeed)
{
    auto run_once = [&]() {
        isa::Program prog = make();
        isa::RegFile regs;
        isa::MemoryImage mem;
        prog.loadData(mem);
        uint64_t count = isa::run(prog, regs, mem, 20'000'000);
        return std::make_pair(count, regs);
    };
    auto [count_a, regs_a] = run_once();
    auto [count_b, regs_b] = run_once();
    EXPECT_EQ(count_a, count_b);
    EXPECT_TRUE(regs_a == regs_b);
}

TEST_P(WorkloadSuite, SeedChangesBehaviour)
{
    WorkloadParams alt;
    alt.seed = 0x1234567;
    isa::Program prog_a = make();
    isa::Program prog_b = make(alt);
    isa::RegFile regs_a, regs_b;
    isa::MemoryImage mem_a, mem_b;
    prog_a.loadData(mem_a);
    prog_b.loadData(mem_b);
    uint64_t count_a = isa::run(prog_a, regs_a, mem_a, 20'000'000);
    uint64_t count_b = isa::run(prog_b, regs_b, mem_b, 20'000'000);
    // Different data must change the dynamic execution (count or
    // final state).
    EXPECT_TRUE(count_a != count_b || !(regs_a == regs_b));
}

TEST_P(WorkloadSuite, ScaleMultipliesWork)
{
    WorkloadParams big;
    big.scale = 2;
    isa::Program prog_1 = make();
    isa::Program prog_2 = make(big);
    isa::RegFile regs;
    isa::MemoryImage mem_1, mem_2;
    prog_1.loadData(mem_1);
    prog_2.loadData(mem_2);
    uint64_t count_1 = isa::run(prog_1, regs, mem_1, 40'000'000);
    isa::RegFile regs2;
    uint64_t count_2 = isa::run(prog_2, regs2, mem_2, 40'000'000);
    EXPECT_GT(count_2, count_1 + count_1 / 2);
}

TEST_P(WorkloadSuite, HasRealisticBranchProfile)
{
    sim::PathProfiler profiler({4});
    profiler.profile(make(), 2'000'000);
    double branch_frac =
        static_cast<double>(profiler.branchExecs()) /
        profiler.dynamicInsts();
    // SPECint-like: terminating branches are a noticeable but not
    // dominant fraction of the stream.
    EXPECT_GT(branch_frac, 0.02) << "too few branches";
    EXPECT_LT(branch_frac, 0.45) << "too many branches";
    // Hardware misprediction rate in a plausible band (eon and
    // m88ksim are near zero by design).
    double mis = static_cast<double>(profiler.mispredicts()) /
                 profiler.branchExecs();
    EXPECT_LT(mis, 0.40);
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadSuite, testing::ValuesIn(workloads::workloadNames()),
    [](const auto &info) { return info.param; });

TEST(WorkloadRegistryTest, TwentyBenchmarks)
{
    EXPECT_EQ(workloads::allWorkloads().size(), 20u);
    EXPECT_EQ(workloads::workloadNames().size(), 20u);
}

TEST(WorkloadRegistryTest, NamesMatchPaperSuite)
{
    auto names = workloads::workloadNames();
    for (const char *expected :
         {"comp", "gcc", "go", "ijpeg", "li", "m88ksim", "perl",
          "vortex", "bzip2_2k", "crafty_2k", "eon_2k", "gap_2k",
          "gcc_2k", "gzip_2k", "mcf_2k", "parser_2k", "perlbmk_2k",
          "twolf_2k", "vortex_2k", "vpr_2k"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << expected;
    }
}

TEST(WorkloadRegistryTest, UnknownNameThrowsUnknownWorkload)
{
    try {
        workloads::makeWorkload("spec2077");
        FAIL() << "expected SimError";
    } catch (const sim::SimError &err) {
        EXPECT_EQ(err.code(), sim::ErrorCode::UnknownWorkload);
        EXPECT_NE(std::string(err.what()).find("spec2077"),
                  std::string::npos);
    }
}

TEST(WorkloadRegistryTest, DescriptionsPresent)
{
    for (const auto &info : workloads::allWorkloads())
        EXPECT_FALSE(info.description.empty()) << info.name;
}

TEST(SyntheticKernelTest, BiasControlsDifficulty)
{
    auto mis_rate = [](std::vector<int> biases) {
        workloads::SyntheticSpec spec;
        spec.numSites = static_cast<int>(biases.size());
        spec.takenPercent = std::move(biases);
        spec.iters = 150;
        sim::PathProfiler profiler({4});
        profiler.profile(workloads::makeSynthetic(spec), 5'000'000);
        return static_cast<double>(profiler.mispredicts()) /
               profiler.branchExecs();
    };
    double easy = mis_rate({0, 100, 0, 100});
    double hard = mis_rate({50, 50, 50, 50});
    EXPECT_LT(easy, 0.02);
    EXPECT_GT(hard, 0.10);
}

TEST(SyntheticKernelDeathTest, MismatchedBiasesPanic)
{
    workloads::SyntheticSpec spec;
    spec.numSites = 3;
    spec.takenPercent = {50};
    EXPECT_DEATH(workloads::makeSynthetic(spec), "one entry per site");
}

// ---- parser_2k dictionary trie ----

/** Walk @p word through the trie; true iff every edge exists and the
 *  final node carries the terminal mark. */
bool
trieAccepts(const workloads::ParserTrie &trie,
            const std::vector<uint64_t> &word)
{
    size_t node = 0;
    for (uint64_t ch : word) {
        uint64_t child = trie.nodes[node][ch];
        if (child == 0)
            return false;
        node = child;
    }
    return trie.nodes[node][8] == 1;
}

TEST(ParserTrieTest, EveryDictWordIsAccepted)
{
    // The default build never hits the node cap; every word must be
    // stored whole and accepted.
    workloads::Rng rng(0x5eed);
    workloads::ParserTrie trie =
        workloads::buildParserTrie(rng, 2048);
    EXPECT_EQ(trie.dict.size(), 160u);
    EXPECT_LT(trie.nodes.size(), 2048u);
    for (const auto &word : trie.dict)
        EXPECT_TRUE(trieAccepts(trie, word));
}

TEST(ParserTrieTest, NodeCapKeepsDictAndTrieConsistent)
{
    // A cap small enough to truncate insertions mid-word: the buggy
    // build marked the partial prefix terminal while the dict kept
    // the full word, so dict words existed that the trie rejected.
    for (size_t cap : {2u, 8u, 32u, 128u}) {
        workloads::Rng rng(0x5eed);
        workloads::ParserTrie trie =
            workloads::buildParserTrie(rng, cap);
        EXPECT_LE(trie.nodes.size(), cap);
        EXPECT_LE(trie.dict.size(), 160u);
        for (const auto &word : trie.dict) {
            EXPECT_FALSE(word.empty());
            EXPECT_TRUE(trieAccepts(trie, word))
                << "cap " << cap << ": dict word rejected";
        }
    }
}

TEST(ParserTrieTest, BuildConsumesRngDeterministically)
{
    // Two builds from the same seed leave the stream in the same
    // place — the workload's text generation depends on it.
    workloads::Rng a(0x5eed), b(0x5eed);
    workloads::buildParserTrie(a, 2048);
    workloads::buildParserTrie(b, 64);  // cap changes nothing drawn
    EXPECT_EQ(a.next(), b.next());
}

} // namespace
