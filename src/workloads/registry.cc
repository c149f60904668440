#include "workloads/workloads.hh"

#include "sim/sim_error.hh"

namespace ssmt
{
namespace workloads
{

const std::vector<WorkloadInfo> &
allWorkloads()
{
    static const std::vector<WorkloadInfo> registry = {
        {"comp", "run-length compression modelling (129.compress)",
         makeCompress},
        {"gcc", "IR-pass interpreter, 24 opcodes (126.gcc)", makeGcc},
        {"go", "territory-game board evaluation (099.go)", makeGo},
        {"ijpeg", "image quantization + edge pass (132.ijpeg)",
         makeIjpeg},
        {"li", "stack bytecode interpreter (130.li)", makeLi},
        {"m88ksim", "guest-ISA simulator (124.m88ksim)", makeM88ksim},
        {"perl", "regex FSM text scan (134.perl)", makePerl},
        {"vortex", "OODB hash-store transactions (147.vortex)",
         makeVortex},
        {"bzip2_2k", "MTF + RLE modelling (256.bzip2)", makeBzip2_2k},
        {"crafty_2k", "bitboard move gen + eval (186.crafty)",
         makeCrafty_2k},
        {"eon_2k", "fixed-point ray tracing (252.eon)", makeEon_2k},
        {"gap_2k", "bignum + binary gcd kernels (254.gap)",
         makeGap_2k},
        {"gcc_2k", "IR-pass interpreter, 48 opcodes (176.gcc)",
         makeGcc_2k},
        {"gzip_2k", "LZ77 deflation (164.gzip)", makeGzip_2k},
        {"mcf_2k", "network-simplex pricing sweep (181.mcf)",
         makeMcf_2k},
        {"parser_2k", "trie word segmentation (197.parser)",
         makeParser_2k},
        {"perlbmk_2k", "regex FSM + token hashing (253.perlbmk)",
         makePerlbmk_2k},
        {"twolf_2k", "annealing placement (300.twolf)", makeTwolf_2k},
        {"vortex_2k", "OODB hash-store transactions (255.vortex)",
         makeVortex_2k},
        {"vpr_2k", "maze-routing wavefront (175.vpr)", makeVpr_2k},
    };
    return registry;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    names.reserve(allWorkloads().size());
    for (const WorkloadInfo &info : allWorkloads())
        names.push_back(info.name);
    return names;
}

isa::Program
makeWorkload(const std::string &name, const WorkloadParams &p)
{
    for (const WorkloadInfo &info : allWorkloads())
        if (info.name == name)
            return info.make(p);
    std::string known;
    for (const WorkloadInfo &info : allWorkloads())
        known += (known.empty() ? "" : ", ") + info.name;
    throw sim::SimError(sim::ErrorCode::UnknownWorkload, "workloads",
                        "unknown workload '" + name + "' (known: " +
                            known + ")");
}

} // namespace workloads
} // namespace ssmt
