/**
 * @file
 * Quickstart: assemble a small program with ProgramBuilder, run it
 * on the Table 3 machine with and without difficult-path
 * microthreading, and read the results.
 *
 *   ./quickstart
 */

#include <cstdio>

#include "isa/builder.hh"
#include "sim/sim_runner.hh"

using namespace ssmt;
using isa::R;

int
main()
{
    // A loop whose test depends on loaded data: the classic
    // hard-to-predict / easy-to-pre-compute branch. Data is 80/20
    // biased: difficult enough to mispredict steadily, stable enough
    // that control-flow paths recur for the Path Cache to latch on.
    isa::ProgramBuilder b;
    constexpr uint64_t kData = 0x10000;
    constexpr int kElems = 4096;
    uint64_t x = 12345;
    for (int i = 0; i < kElems; i++) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        uint64_t value = (x >> 33) & 0xfe;          // even
        if ((x >> 20) % 100 < 20)
            value |= 1;                             // 20% odd
        b.initWord(kData + 8 * i, value);
    }

    b.li(R(20), 60);                    // outer passes
    b.label("pass");
    b.li(R(21), kData);
    b.li(R(22), kData + kElems * 8);
    b.li(R(1), 0);
    b.label("loop");
    b.ld(R(2), R(21), 0);
    b.andi(R(3), R(2), 1);
    b.beq(R(3), R(0), "even");          // data-dependent branch
    b.add(R(1), R(1), R(2));
    b.j("next");
    b.label("even");
    b.sub(R(1), R(1), R(2));
    b.label("next");
    b.addi(R(21), R(21), 8);
    b.blt(R(21), R(22), "loop");
    b.addi(R(20), R(20), -1);
    b.bne(R(20), R(0), "pass");
    b.halt();
    isa::Program prog = b.build("quickstart");

    std::printf("program: %llu static instructions\n\n",
                static_cast<unsigned long long>(prog.size()));

    // 1. The baseline Table 3 machine.
    sim::MachineConfig cfg;
    sim::Stats base = sim::runProgramChecked(prog, cfg);
    std::printf("baseline:    IPC %.3f, hardware mispredict rate "
                "%.2f%%\n",
                base.ipc(), 100 * base.hwMispredictRate());

    // 2. The same machine with the difficult-path mechanism.
    cfg.mode = sim::Mode::Microthread;
    cfg.builder.pruningEnabled = true;
    sim::Stats mt = sim::runProgramChecked(prog, cfg);
    std::printf("microthread: IPC %.3f, used mispredict rate "
                "%.2f%%\n\n",
                mt.ipc(), 100 * mt.usedMispredictRate());
    std::printf("speed-up: %.3fx\n\n", sim::speedup(mt, base));

    std::printf("full microthread-run statistics:\n%s",
                mt.report().c_str());
    return 0;
}
