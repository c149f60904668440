#include "cli_common.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "sim/jobs.hh"

namespace ssmt
{
namespace cli
{

ArgParser::ArgParser(int argc, char **argv, std::string usage_text,
                     std::vector<FlagSpec> specs)
    : argv0_(argc > 0 ? argv[0] : "ssmt"),
      usage_(std::move(usage_text)), specs_(std::move(specs))
{
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            usage(0);
        if (arg == "--list-workloads") {
            for (const std::string &name :
                 workloads::workloadNames())
                std::printf("%s\n", name.c_str());
            std::exit(0);
        }
        const FlagSpec *spec = findSpec(arg);
        if (!spec) {
            if (!arg.empty() && arg[0] == '-') {
                std::fprintf(stderr, "%s: unknown flag '%s'\n",
                             argv0_.c_str(), arg.c_str());
                usage(2);
            }
            positionals_.push_back(arg);
            continue;
        }
        present_.insert(spec->name);
        if (!spec->takesValue)
            continue;
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s: %s needs a value\n",
                         argv0_.c_str(), arg.c_str());
            usage(2);
        }
        std::vector<std::string> &slot = values_[spec->name];
        if (!spec->repeatable)
            slot.clear();
        slot.push_back(argv[++i]);
    }
}

const FlagSpec *
ArgParser::findSpec(const std::string &arg) const
{
    for (const FlagSpec &spec : specs_) {
        if (arg == spec.name ||
            (spec.alias != nullptr && arg == spec.alias))
            return &spec;
    }
    return nullptr;
}

bool
ArgParser::has(const std::string &flag) const
{
    return present_.count(flag) > 0;
}

std::string
ArgParser::str(const std::string &flag, const std::string &def) const
{
    auto it = values_.find(flag);
    if (it == values_.end() || it->second.empty())
        return def;
    return it->second.back();
}

uint64_t
ArgParser::u64(const std::string &flag, uint64_t def) const
{
    auto it = values_.find(flag);
    if (it == values_.end() || it->second.empty())
        return def;
    const std::string &text = it->second.back();
    char *end = nullptr;
    errno = 0;
    unsigned long long parsed =
        std::strtoull(text.c_str(), &end, 10);
    // strtoull skips blanks, takes a sign and wraps "-1" to 2^64-1:
    // only plain decimal digits that fit count as a number here.
    if (text.empty() ||
        !std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr, "%s: %s needs a number (got '%s')\n",
                     argv0_.c_str(), flag.c_str(), text.c_str());
        usage(2);
    }
    return parsed;
}

double
ArgParser::dbl(const std::string &flag, double def) const
{
    auto it = values_.find(flag);
    if (it == values_.end() || it->second.empty())
        return def;
    const std::string &text = it->second.back();
    char *end = nullptr;
    double parsed = std::strtod(text.c_str(), &end);
    if (!end || end == text.c_str() || *end != '\0') {
        std::fprintf(stderr, "%s: %s needs a number (got '%s')\n",
                     argv0_.c_str(), flag.c_str(), text.c_str());
        usage(2);
    }
    return parsed;
}

const std::vector<std::string> &
ArgParser::all(const std::string &flag) const
{
    static const std::vector<std::string> kEmpty;
    auto it = values_.find(flag);
    return it == values_.end() ? kEmpty : it->second;
}

void
ArgParser::fail(const std::string &message) const
{
    std::fprintf(stderr, "%s: %s\n", argv0_.c_str(),
                 message.c_str());
    usage(2);
}

void
ArgParser::usage(int status) const
{
    std::fputs(usage_.c_str(), stderr);
    std::exit(status);
}

unsigned
jobsFlag(const ArgParser &args, const std::string &flag)
{
    if (!args.has(flag))
        return 0;   // auto: the sim::resolveJobs chain (SSMT_JOBS...)
    if (args.str(flag) == "auto")
        return sim::hostThreads();
    uint64_t jobs = args.u64(flag);
    if (jobs == 0)
        args.fail(flag + " must be >= 1 (or 'auto')");
    if (jobs > std::numeric_limits<unsigned>::max())
        args.fail(flag + " must be at most " +
                  std::to_string(std::numeric_limits<unsigned>::max()));
    return static_cast<unsigned>(jobs);
}

bpred::PredictorKind
predictorFlag(const ArgParser &args, const std::string &flag)
{
    if (!args.has(flag))
        return bpred::PredictorKind::Hybrid;
    std::string name = args.str(flag);
    bpred::PredictorKind kind;
    if (!bpred::parsePredictorKind(name, &kind)) {
        std::string known;
        for (bpred::PredictorKind k : bpred::allPredictorKinds()) {
            if (!known.empty())
                known += ", ";
            known += bpred::predictorKindName(k);
        }
        args.fail("unknown predictor '" + name + "' (accepted: " +
                  known + ")");
    }
    return kind;
}

std::vector<std::string>
splitCommas(const std::string &arg)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos < arg.size()) {
        size_t comma = arg.find(',', pos);
        if (comma == std::string::npos)
            comma = arg.size();
        if (comma > pos)
            out.push_back(arg.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

std::vector<std::string>
expandWorkloadList(const std::string &text)
{
    if (text == "all")
        return workloads::workloadNames();
    return splitCommas(text);
}

std::vector<workloads::WorkloadInfo>
resolveWorkloads(const std::vector<std::string> &names,
                 const std::string &argv0)
{
    std::vector<workloads::WorkloadInfo> out;
    out.reserve(names.size());
    for (const std::string &name : names) {
        bool found = false;
        for (const auto &info : workloads::allWorkloads()) {
            if (info.name == name) {
                out.push_back(info);
                found = true;
                break;
            }
        }
        if (!found) {
            std::fprintf(stderr, "%s: unknown workload '%s'\n",
                         argv0.c_str(), name.c_str());
            std::exit(2);
        }
    }
    return out;
}

} // namespace cli
} // namespace ssmt

