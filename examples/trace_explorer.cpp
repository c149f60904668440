/**
 * @file
 * Trace explorer: follow the life of one difficult path through the
 * machine — promotion, spawns, prefix aborts, in-flight aborts, and
 * the predictions that made it in time. Uses the pipeline event
 * trace the core can record.
 *
 *   ./trace_explorer [workload]
 */

#include <cstdio>
#include <map>
#include <string>

#include "cpu/ssmt_core.hh"
#include "sim/sim_error.hh"
#include "workloads/workloads.hh"

using namespace ssmt;

namespace
{

int
explore(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "comp";
    isa::Program prog = workloads::makeWorkload(name);

    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    cfg.builder.pruningEnabled = true;
    cfg.traceCapacity = 1 << 20;
    cpu::SsmtCore core(prog, cfg);
    core.run();

    // Tally mechanism events per path, find the busiest path.
    struct PathTally
    {
        uint64_t spawns = 0, prefix_aborts = 0, flight_aborts = 0,
                 completes = 0, early = 0, late = 0;
    };
    std::map<core::PathId, PathTally> tallies;
    for (const cpu::TraceRecord &rec : core.trace().records()) {
        switch (rec.event) {
          case cpu::TraceEvent::Spawn:
            tallies[rec.aux].spawns++;
            break;
          case cpu::TraceEvent::SpawnAbortPrefix:
            tallies[rec.aux].prefix_aborts++;
            break;
          case cpu::TraceEvent::ThreadAbort:
            tallies[rec.aux].flight_aborts++;
            break;
          case cpu::TraceEvent::ThreadComplete:
            tallies[rec.aux].completes++;
            break;
          case cpu::TraceEvent::PredEarly:
            tallies[rec.aux].early++;
            break;
          case cpu::TraceEvent::PredLate:
            tallies[rec.aux].late++;
            break;
          default:
            break;
        }
    }
    std::printf("%s: %llu trace events retained (%llu recorded)\n\n",
                name.c_str(),
                static_cast<unsigned long long>(core.trace().size()),
                static_cast<unsigned long long>(
                    core.trace().totalRecorded()));

    std::printf("%-18s %7s %8s %8s %9s %6s %6s\n", "path_id",
                "spawns", "pre-abrt", "in-abrt", "completes",
                "early", "late");
    int shown = 0;
    // Show the five paths with the most spawn activity.
    std::multimap<uint64_t, core::PathId> by_spawns;
    for (const auto &[id, tally] : tallies)
        by_spawns.emplace(tally.spawns, id);
    for (auto it = by_spawns.rbegin();
         it != by_spawns.rend() && shown < 5; ++it, shown++) {
        const PathTally &t = tallies[it->second];
        std::printf("%016llx %7llu %8llu %8llu %9llu %6llu %6llu\n",
                    static_cast<unsigned long long>(it->second),
                    static_cast<unsigned long long>(t.spawns),
                    static_cast<unsigned long long>(t.prefix_aborts),
                    static_cast<unsigned long long>(t.flight_aborts),
                    static_cast<unsigned long long>(t.completes),
                    static_cast<unsigned long long>(t.early),
                    static_cast<unsigned long long>(t.late));
    }

    // And dump the routine behind the busiest path.
    if (!by_spawns.empty()) {
        core::PathId busiest = by_spawns.rbegin()->second;
        const core::MicroThread *thread =
            core.microRam().find(busiest);
        if (thread) {
            std::printf("\nroutine for the busiest path:\n%s",
                        thread->toString().c_str());
        } else {
            std::printf("\n(busiest path's routine was demoted "
                        "before the run ended)\n");
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // An unknown workload name is a usage error, not a crash.
    try {
        return explore(argc, argv);
    } catch (const sim::SimError &err) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.what());
        return 2;
    }
}
