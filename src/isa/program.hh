/**
 * @file
 * A loadable program: code, initial data image, and an entry point.
 */

#ifndef SSMT_ISA_PROGRAM_HH
#define SSMT_ISA_PROGRAM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/inst.hh"

namespace ssmt
{
namespace isa
{

class MemoryImage;

/** An (address, value) pair in the initial data image. */
struct DataInit
{
    uint64_t addr;
    uint64_t value;
};

/**
 * An immutable program. The name, code and data image live in one
 * shared body that is never modified after construction, so copying
 * a Program bumps a reference count instead of copying the image:
 * every batch cell, core and worker thread holding a copy reads the
 * same bytes. A default-constructed Program is empty.
 */
class Program
{
  public:
    Program() : Program({}, {}, {}) {}
    Program(std::string name, std::vector<Inst> code,
            std::vector<DataInit> data);

    // Copy-only: a moved-from Program would have no body, and every
    // accessor relies on body_ being set. A "move" is a copy, which
    // costs one reference-count bump.
    Program(const Program &) = default;
    Program &operator=(const Program &) = default;

    const std::string &name() const { return body_->name; }
    const std::vector<Inst> &code() const { return body_->code; }
    const std::vector<DataInit> &data() const { return body_->data; }
    const Inst &inst(uint64_t pc) const { return body_->code[pc]; }
    uint64_t size() const { return body_->code.size(); }
    uint64_t entry() const { return 0; }

    /** Copy the initial data image into @p mem. */
    void loadData(MemoryImage &mem) const;

    /** @return multi-line disassembly listing. */
    std::string disassemble() const;

  private:
    struct Body
    {
        std::string name;
        std::vector<Inst> code;
        std::vector<DataInit> data;
    };

    std::shared_ptr<const Body> body_;
};

} // namespace isa
} // namespace ssmt

#endif // SSMT_ISA_PROGRAM_HH
