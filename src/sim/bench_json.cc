#include "sim/bench_json.hh"

#include <cstdlib>
#include <sstream>

#include "sim/fsio.hh"
#include "sim/jobs.hh"
#include "sim/json_text.hh"

namespace ssmt
{
namespace sim
{

namespace
{

void
appendField(std::ostringstream &out, const char *key, uint64_t value,
            bool trailing_comma = true)
{
    out << '"' << key << "\": " << value;
    if (trailing_comma)
        out << ", ";
}

} // namespace

BenchJson::BenchJson(std::string bench, unsigned jobs, bool quick)
    : bench_(std::move(bench)), jobs_(jobs), quick_(quick)
{
}

void
BenchJson::addRun(const std::string &workload,
                  const std::string &config, double host_seconds,
                  const Stats &stats)
{
    runs_.push_back({workload, config, host_seconds, true, stats});
}

void
BenchJson::addTiming(const std::string &workload,
                     const std::string &config, double host_seconds)
{
    runs_.push_back({workload, config, host_seconds, false, Stats{}});
}

std::string
BenchJson::escape(const std::string &text)
{
    std::string out;
    appendJsonEscaped(out, text);
    return out;
}

std::string
BenchJson::str() const
{
    std::ostringstream out;
    out.precision(6);
    out << std::fixed;

    double job_seconds = 0.0;
    for (const Run &run : runs_)
        job_seconds += run.hostSeconds;

    out << "{\n";
    out << "  \"schema\": \"ssmt-bench-v1\",\n";
    out << "  \"bench\": \"" << escape(bench_) << "\",\n";
    out << "  \"quick\": " << (quick_ ? "true" : "false") << ",\n";
    out << "  \"jobs\": " << jobs_ << ",\n";
    out << "  \"hostThreads\": " << hostThreads() << ",\n";
    out << "  \"suiteWallSeconds\": " << suiteWallSeconds_ << ",\n";
    out << "  \"jobSecondsTotal\": " << job_seconds << ",\n";
    out << "  \"runs\": [";
    for (size_t i = 0; i < runs_.size(); i++) {
        const Run &run = runs_[i];
        out << (i ? ",\n    " : "\n    ");
        out << "{\"workload\": \"" << escape(run.workload)
            << "\", \"config\": \"" << escape(run.config)
            << "\", \"hostSeconds\": " << run.hostSeconds;
        if (run.hasStats) {
            const Stats &s = run.stats;
            out << ", ";
            appendField(out, "cycles", s.cycles);
            appendField(out, "retiredInsts", s.retiredInsts);
            out << "\"ipc\": " << s.ipc() << ", ";
            appendField(out, "condBranches", s.condBranches);
            appendField(out, "condHwMispredicts", s.condHwMispredicts);
            appendField(out, "indirectBranches", s.indirectBranches);
            appendField(out, "indirectHwMispredicts",
                        s.indirectHwMispredicts);
            appendField(out, "usedMispredicts", s.usedMispredicts);
            appendField(out, "promotionsRequested",
                        s.promotionsRequested);
            appendField(out, "promotionsCompleted",
                        s.promotionsCompleted);
            appendField(out, "demotions", s.demotions);
            appendField(out, "spawnAttempts", s.spawnAttempts);
            appendField(out, "spawns", s.spawns);
            appendField(out, "abortsPostSpawn", s.abortsPostSpawn);
            appendField(out, "microthreadsCompleted",
                        s.microthreadsCompleted);
            appendField(out, "predEarly", s.predEarly);
            appendField(out, "predLate", s.predLate);
            appendField(out, "predUseless", s.predUseless);
            appendField(out, "predNeverReached", s.predNeverReached);
            appendField(out, "microPredCorrect", s.microPredCorrect);
            appendField(out, "microPredWrong", s.microPredWrong);
            appendField(out, "pcacheWrites", s.pcacheWrites);
            appendField(out, "pcacheLookupHits", s.pcacheLookupHits,
                        false);
        }
        out << "}";
    }
    out << (runs_.empty() ? "]" : "\n  ]") << "\n}\n";
    return out.str();
}

std::string
BenchJson::writeFile(const std::string &dir) const
{
    std::string target_dir = dir;
    if (target_dir.empty()) {
        if (const char *env = std::getenv("SSMT_BENCH_JSON_DIR"))
            target_dir = env;
        else
            target_dir = ".";
    }
    if (target_dir == "off" || target_dir == "/dev/null")
        return "";

    std::string path = target_dir + "/BENCH_" + bench_ + ".json";
    return writeFileAtomic(path, str()) ? path : "";
}

} // namespace sim
} // namespace ssmt
