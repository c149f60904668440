#include "isa/executor.hh"

#include "isa/program.hh"
#include "sim/logging.hh"

namespace ssmt
{
namespace isa
{

uint64_t
run(const Program &prog, RegFile &regs, MemoryImage &mem,
    uint64_t max_insts)
{
    uint64_t pc = prog.entry();
    uint64_t count = 0;
    while (count < max_insts) {
        SSMT_ASSERT(pc < prog.size(),
                    "pc out of range in program " + prog.name());
        StepResult res = step(prog.inst(pc), pc, regs, mem);
        count++;
        if (res.halted)
            break;
        pc = res.nextPc;
    }
    return count;
}

} // namespace isa
} // namespace ssmt

