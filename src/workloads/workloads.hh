/**
 * @file
 * The SPECint-proxy workload suite.
 *
 * The paper evaluates on SPECint95 and SPECint2000 compiled for
 * Alpha EV6. Those binaries (and the ISA) are unavailable here, so
 * each benchmark is replaced by a hand-written program in the ssmt
 * ISA that imitates the branch and memory character of its
 * namesake — pointer chasing for mcf, interpreter dispatch for li,
 * compression modelling for bzip2/gzip/compress, game-tree search
 * for go/crafty, and so on (see DESIGN.md Section 1). The suite
 * deliberately reproduces the paper's central structural motif:
 * shared code reached along many control-flow paths, where branch
 * difficulty depends on the *path*, not the static branch.
 *
 * All workloads are deterministic given (scale, seed).
 */

#ifndef SSMT_WORKLOADS_WORKLOADS_HH
#define SSMT_WORKLOADS_WORKLOADS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace ssmt
{
namespace workloads
{

struct WorkloadParams
{
    /** Work multiplier; 1 is the bench default (hundreds of
     *  thousands of dynamic instructions), tests use less. */
    uint64_t scale = 1;
    /** Seed for all pseudorandom data in the program image. */
    uint64_t seed = 0x5eed;
};

/** Deterministic 64-bit LCG/xorshift mix for data-image generation. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed ? seed : 0x9e3779b9)
    {
    }

    uint64_t
    next()
    {
        // xorshift64*
        state_ ^= state_ >> 12;
        state_ ^= state_ << 25;
        state_ ^= state_ >> 27;
        return state_ * 0x2545f4914f6cdd1dull;
    }

    /** Uniform in [0, bound). */
    uint64_t
    nextBelow(uint64_t bound)
    {
        return bound ? next() % bound : 0;
    }

    /** True with probability @p percent / 100. */
    bool
    chance(int percent)
    {
        return static_cast<int>(nextBelow(100)) < percent;
    }

  private:
    uint64_t state_;
};

// ---- SPECint95 proxies ----
isa::Program makeCompress(const WorkloadParams &p = {});
isa::Program makeGcc(const WorkloadParams &p = {});
isa::Program makeGo(const WorkloadParams &p = {});
isa::Program makeIjpeg(const WorkloadParams &p = {});
isa::Program makeLi(const WorkloadParams &p = {});
isa::Program makeM88ksim(const WorkloadParams &p = {});
isa::Program makePerl(const WorkloadParams &p = {});
isa::Program makeVortex(const WorkloadParams &p = {});

// ---- SPECint2000 proxies ----
isa::Program makeBzip2_2k(const WorkloadParams &p = {});
isa::Program makeCrafty_2k(const WorkloadParams &p = {});
isa::Program makeEon_2k(const WorkloadParams &p = {});
isa::Program makeGap_2k(const WorkloadParams &p = {});
isa::Program makeGcc_2k(const WorkloadParams &p = {});
isa::Program makeGzip_2k(const WorkloadParams &p = {});
isa::Program makeMcf_2k(const WorkloadParams &p = {});
isa::Program makeParser_2k(const WorkloadParams &p = {});
isa::Program makePerlbmk_2k(const WorkloadParams &p = {});
isa::Program makeTwolf_2k(const WorkloadParams &p = {});
isa::Program makeVortex_2k(const WorkloadParams &p = {});
isa::Program makeVpr_2k(const WorkloadParams &p = {});

// ---- Registry ----

struct WorkloadInfo
{
    std::string name;
    std::string description;
    std::function<isa::Program(const WorkloadParams &)> make;
};

/** All 20 workloads, in the paper's Table 1 order. */
const std::vector<WorkloadInfo> &allWorkloads();

/** Names only, in suite order. */
std::vector<std::string> workloadNames();

/** Build a workload by name; an unknown name throws
 *  sim::SimError(UnknownWorkload). */
isa::Program makeWorkload(const std::string &name,
                          const WorkloadParams &p = {});

// ---- parser_2k dictionary trie (exposed for tests) ----

/** The parser_2k workload's host-built character trie plus the
 *  dictionary it indexes. Node layout: words [0..7] = child node
 *  indices (0 = none), word [8] = terminal flag. */
struct ParserTrie
{
    std::vector<std::array<uint64_t, 9>> nodes;
    /** Every word here is accepted by the trie, even when the node
     *  cap truncated an insertion (the word is truncated with it). */
    std::vector<std::vector<uint64_t>> dict;
};

/**
 * Build parser_2k's random dictionary and trie, capped at
 * @p max_nodes trie nodes. Draws from @p rng exactly as the workload
 * generator always has, so the caller's stream continues unchanged.
 */
ParserTrie buildParserTrie(Rng &rng, size_t max_nodes);

// ---- Parameterizable synthetic kernel (tests / ablations) ----

struct SyntheticSpec
{
    /** Distinct call sites of the shared helper (= distinct paths
     *  to its branches). */
    int numSites = 4;
    /** Elements scanned per helper call. */
    int elemsPerSite = 64;
    /** Per-site taken-probability (percent) of the data-dependent
     *  branch; 0 or 100 = trivially predictable, 50 = hardest.
     *  Size must equal numSites. */
    std::vector<int> takenPercent = {0, 100, 50, 50};
    /** Outer iterations. */
    uint64_t iters = 64;
    uint64_t seed = 0x5eed;
};

/**
 * A program with one shared data-dependent branch reached from
 * several call sites, each scanning data of a different bias: the
 * canonical "easy branch with a few difficult paths" from the
 * paper's Section 3. Tests use it to create paths of known
 * difficulty.
 */
isa::Program makeSynthetic(const SyntheticSpec &spec);

/**
 * Structured random program for differential (co-simulation)
 * testing: random blocks, random control wiring, fuel-bounded
 * termination, masked memory accesses. Deterministic per seed.
 */
isa::Program makeRandomProgram(uint64_t seed, int num_blocks = 24,
                               uint64_t fuel = 3000);

} // namespace workloads
} // namespace ssmt

#endif // SSMT_WORKLOADS_WORKLOADS_HH
