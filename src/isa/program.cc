#include "isa/program.hh"

#include <cstdio>

#include "isa/memory_image.hh"

namespace ssmt
{
namespace isa
{

Program::Program(std::string name, std::vector<Inst> code,
                 std::vector<DataInit> data)
    : body_(std::make_shared<const Body>(Body{
          std::move(name), std::move(code), std::move(data)}))
{
}

void
Program::loadData(MemoryImage &mem) const
{
    for (const DataInit &init : body_->data)
        mem.store(init.addr, init.value);
}

std::string
Program::disassemble() const
{
    const std::vector<Inst> &code = body_->code;
    std::string out;
    out.reserve(code.size() * 32);
    char buf[32];
    for (uint64_t pc = 0; pc < code.size(); pc++) {
        std::snprintf(buf, sizeof(buf), "%6llu:  ",
                      static_cast<unsigned long long>(pc));
        out += buf;
        out += code[pc].toString();
        out += '\n';
    }
    return out;
}

} // namespace isa
} // namespace ssmt
