/**
 * @file
 * `mcf_2k` proxy (SPECint2000 181.mcf): network-simplex pricing —
 * sweeping a large arc array and chasing node pointers far larger
 * than the L2 cache. The reduced-cost sign branch depends on node
 * potentials reached through cache-missing indirections, which is
 * why the paper sees mcf gain noticeably from microthread
 * *prefetching* alone (Figure 7's overhead-only bar).
 */

#include "workloads/workloads.hh"

#include "isa/builder.hh"

namespace ssmt
{
namespace workloads
{

using isa::ProgramBuilder;
using isa::R;

isa::Program
makeMcf_2k(const WorkloadParams &p)
{
    // 256K nodes x 2 words = 4MB  (>> 1MB L2)
    // 20K arcs x 4 words
    constexpr uint64_t kNodes = 0x10000000;
    constexpr uint64_t kArcs = 0x20000000;
    constexpr int kNumNodes = 256 * 1024;
    constexpr int kNumArcs = 20 * 1024;

    ProgramBuilder b;
    Rng rng(p.seed);

    // The data image (606,208 words, 9.7 MB as DataInit) is sized
    // once and written in place, so a build touches each of its
    // pages once: every campaign pass builds this program again.
    b.reserveData(kNumNodes * 2 + kNumArcs * 4);

    // Nodes: {potential, flow}. Potentials clustered around the arc
    // costs so the reduced-cost sign is genuinely data-dependent.
    for (uint64_t i = 0; i < kNumNodes; i++) {
        b.initWord(kNodes + 16 * i, rng.nextBelow(1 << 16));
        b.initWord(kNodes + 16 * i + 8, rng.nextBelow(256));
    }

    // Arcs: {tail, head, cost, flow} with scattered endpoints.
    for (uint64_t i = 0; i < kNumArcs; i++) {
        b.initWord(kArcs + 32 * i, rng.nextBelow(kNumNodes));
        b.initWord(kArcs + 32 * i + 8, rng.nextBelow(kNumNodes));
        b.initWord(kArcs + 32 * i + 16, rng.nextBelow(1 << 16));
        b.initWord(kArcs + 32 * i + 24, 0);
    }

    // r20 = pass, r21 = arc cursor, r22 = end, r1 = pushed flow
    b.li(R(20), static_cast<int64_t>(p.scale));
    b.label("pass");
    b.li(R(21), kArcs);
    b.li(R(22), kArcs + kNumArcs * 4 * 8);
    b.li(R(1), 0);

    b.label("arc");
    b.ld(R(2), R(21), 0);               // tail index
    b.ld(R(3), R(21), 8);               // head index
    b.ld(R(4), R(21), 16);              // cost
    // Chase node potentials (L2-missing loads).
    b.slli(R(5), R(2), 4);
    b.li(R(6), kNodes);
    b.add(R(5), R(5), R(6));
    b.ld(R(7), R(5), 0);                // tail potential
    b.slli(R(8), R(3), 4);
    b.add(R(8), R(8), R(6));
    b.ld(R(9), R(8), 0);                // head potential
    // reduced = cost - tail_pot + head_pot; sign is the hard branch.
    b.sub(R(10), R(4), R(7));
    b.add(R(10), R(10), R(9));
    b.bge(R(10), R(0), "nonneg");
    // Negative reduced cost: push flow, update both potentials.
    b.addi(R(1), R(1), 1);
    b.ld(R(11), R(5), 8);               // tail flow
    b.addi(R(11), R(11), 1);
    b.st(R(11), R(5), 8);
    b.addi(R(7), R(7), 3);              // re-price tail
    b.st(R(7), R(5), 0);
    b.st(R(1), R(21), 24);              // arc flow journal
    b.j("arc_next");
    b.label("nonneg");
    // Dual update on a biased subset.
    b.andi(R(11), R(10), 7);
    b.bne(R(11), R(0), "arc_next");
    b.addi(R(9), R(9), -1);
    b.st(R(9), R(8), 0);
    b.label("arc_next");
    b.addi(R(21), R(21), 32);
    b.blt(R(21), R(22), "arc");

    b.addi(R(20), R(20), -1);
    b.bne(R(20), R(0), "pass");
    b.halt();
    return b.build("mcf_2k");
}

} // namespace workloads
} // namespace ssmt
