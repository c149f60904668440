#include "sim/path_profiler.hh"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "bpred/frontend_predictor.hh"
#include "core/path_tracker.hh"
#include "isa/executor.hh"
#include "isa/memory_image.hh"
#include "sim/fsio.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace ssmt
{
namespace sim
{

PathProfiler::PathProfiler(std::vector<int> ns) : ns_(std::move(ns))
{
    SSMT_ASSERT(!ns_.empty(), "profiler needs at least one n");
    for (int n : ns_)
        SSMT_ASSERT(n >= 1 && n <= 16, "profiler n out of range");
    pathStats_.resize(ns_.size());
}

void
PathProfiler::profile(const isa::Program &prog, uint64_t max_insts)
{
    isa::RegFile regs;
    isa::MemoryImage mem;
    prog.loadData(mem);
    bpred::FrontEndPredictor fep;
    core::PathTracker tracker(16);

    // Dynamic instruction count at each of the last 16 taken
    // branches, ring-aligned with the tracker, for scope measurement.
    int max_n = *std::max_element(ns_.begin(), ns_.end());
    std::vector<uint64_t> taken_at(16, 0);
    int head = 0;
    uint64_t taken_count = 0;

    uint64_t pc = prog.entry();
    while (dynamicInsts_ < max_insts) {
        const isa::Inst &inst = prog.inst(pc);
        isa::StepResult res = isa::step(inst, pc, regs, mem);
        dynamicInsts_++;
        if (res.halted)
            break;

        if (inst.isControl()) {
            if (inst.isTerminatingBranch()) {
                branchExecs_++;
                bpred::HwPrediction hw = fep.predictAndTrain(
                    pc, inst, res.taken, res.target);
                bool miss = !hw.correct;
                if (miss)
                    mispredicts_++;

                Counts &branch = branchStats_[pc];
                branch.occurrences++;
                if (miss)
                    branch.mispredicts++;

                for (size_t i = 0; i < ns_.size(); i++) {
                    int n = ns_[i];
                    if (static_cast<uint64_t>(n) > taken_count)
                        continue;   // warm-up: path not yet formed
                    core::PathId id = tracker.pathId(n);
                    Counts &path = pathStats_[i][id];
                    path.occurrences++;
                    if (miss)
                        path.mispredicts++;
                    // Scope: dynamic instructions from just after the
                    // n-th prior taken branch through this branch.
                    int idx = (head + 16 - n) % 16;
                    path.scopeSum += dynamicInsts_ - taken_at[idx];
                }
            } else {
                // Train RAS/histories on calls and jumps too.
                fep.predictAndTrain(pc, inst, res.taken, res.target);
            }
            if (res.taken) {
                tracker.push(pc * isa::kInstBytes);
                taken_at[head] = dynamicInsts_;
                head = (head + 1) % 16;
                taken_count++;
            }
        }
        pc = res.nextPc;
    }
    (void)max_n;
}

const std::unordered_map<core::PathId, PathProfiler::Counts> &
PathProfiler::mapFor(int n) const
{
    for (size_t i = 0; i < ns_.size(); i++)
        if (ns_[i] == n)
            return pathStats_[i];
    SSMT_PANIC("path profiler was not configured for that n");
}

uint64_t
PathProfiler::uniquePaths(int n) const
{
    return mapFor(n).size();
}

double
PathProfiler::avgScope(int n) const
{
    const auto &paths = mapFor(n);
    if (paths.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &[id, counts] : paths)
        sum += static_cast<double>(counts.scopeSum) /
               static_cast<double>(counts.occurrences);
    return sum / static_cast<double>(paths.size());
}

uint64_t
PathProfiler::difficultPaths(int n, double threshold) const
{
    uint64_t count = 0;
    for (const auto &[id, counts] : mapFor(n))
        if (counts.difficult(threshold))
            count++;
    return count;
}

std::vector<core::PathId>
PathProfiler::difficultPathIds(int n, double threshold) const
{
    std::vector<std::pair<uint64_t, core::PathId>> ranked;
    for (const auto &[id, counts] : mapFor(n))
        if (counts.difficult(threshold))
            ranked.emplace_back(counts.mispredicts, id);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  return a.first > b.first;
              });
    std::vector<core::PathId> out;
    out.reserve(ranked.size());
    for (const auto &[misses, id] : ranked)
        out.push_back(id);
    return out;
}

bool
PathProfiler::saveHints(const std::string &filename,
                        const std::vector<core::PathId> &hints)
{
    std::string body = "# ssmt difficult-path hints, "
                       "mispredict-heaviest first\n";
    char line[32];
    for (core::PathId id : hints) {
        std::snprintf(line, sizeof(line), "%016" PRIx64 "\n", id);
        body += line;
    }
    return writeFileAtomic(filename, body);
}

std::vector<core::PathId>
PathProfiler::loadHints(const std::string &filename)
{
    std::ifstream in(filename);
    if (!in) {
        throw SimError(ErrorCode::IoError, "hints",
                       "cannot read hints file '" + filename + "'");
    }
    std::vector<core::PathId> hints;
    std::string line;
    for (size_t line_no = 1; std::getline(in, line); line_no++) {
        if (line.empty() || line[0] == '#')
            continue;
        core::PathId id = 0;
        const char *end = line.data() + line.size();
        auto [stop, err] = std::from_chars(line.data(), end, id, 16);
        if (err != std::errc() || stop != end) {
            throw SimError(ErrorCode::ParseError, "hints",
                           filename + ":" + std::to_string(line_no) +
                               ": expected one hex Path_Id, got '" +
                               line + "'");
        }
        hints.push_back(id);
    }
    return hints;
}

double
PathProfiler::branchMisCoverage(double threshold) const
{
    if (mispredicts_ == 0)
        return 0.0;
    uint64_t covered = 0;
    for (const auto &[pc, counts] : branchStats_)
        if (counts.difficult(threshold))
            covered += counts.mispredicts;
    return static_cast<double>(covered) / mispredicts_;
}

double
PathProfiler::branchExeCoverage(double threshold) const
{
    if (branchExecs_ == 0)
        return 0.0;
    uint64_t covered = 0;
    for (const auto &[pc, counts] : branchStats_)
        if (counts.difficult(threshold))
            covered += counts.occurrences;
    return static_cast<double>(covered) / branchExecs_;
}

double
PathProfiler::pathMisCoverage(int n, double threshold) const
{
    if (mispredicts_ == 0)
        return 0.0;
    uint64_t covered = 0;
    for (const auto &[id, counts] : mapFor(n))
        if (counts.difficult(threshold))
            covered += counts.mispredicts;
    return static_cast<double>(covered) / mispredicts_;
}

double
PathProfiler::pathExeCoverage(int n, double threshold) const
{
    if (branchExecs_ == 0)
        return 0.0;
    uint64_t covered = 0;
    for (const auto &[id, counts] : mapFor(n))
        if (counts.difficult(threshold))
            covered += counts.occurrences;
    return static_cast<double>(covered) / branchExecs_;
}

} // namespace sim
} // namespace ssmt
