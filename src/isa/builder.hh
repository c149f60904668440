/**
 * @file
 * ProgramBuilder: a tiny structured assembler for the ssmt ISA.
 *
 * Workloads and tests construct programs through this builder rather
 * than by hand-writing Inst vectors. Labels may be referenced before
 * they are bound; build() resolves all fixups and fails loudly on
 * unbound labels.
 *
 * Example:
 * @code
 *   ProgramBuilder b;
 *   b.li(R(1), 100);
 *   b.label("loop");
 *   b.addi(R(1), R(1), -1);
 *   b.bne(R(1), R(0), "loop");
 *   b.halt();
 *   Program p = b.build("countdown");
 * @endcode
 */

#ifndef SSMT_ISA_BUILDER_HH
#define SSMT_ISA_BUILDER_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/program.hh"

namespace ssmt
{
namespace isa
{

/** Terse register constructor: R(5) == register 5. */
constexpr RegIndex
R(int n)
{
    return static_cast<RegIndex>(n);
}

class ProgramBuilder
{
  public:
    ProgramBuilder() = default;

    /** Bind @p name to the next emitted instruction. */
    ProgramBuilder &label(const std::string &name);

    /** @return pc that @p name is or will be bound to (for tests). */
    uint64_t labelPc(const std::string &name) const;

    /** Current instruction count (== pc of the next instruction). */
    uint64_t here() const { return code_.size(); }

    // ALU register-register
    ProgramBuilder &add(RegIndex rd, RegIndex rs1, RegIndex rs2);
    ProgramBuilder &sub(RegIndex rd, RegIndex rs1, RegIndex rs2);
    ProgramBuilder &and_(RegIndex rd, RegIndex rs1, RegIndex rs2);
    ProgramBuilder &or_(RegIndex rd, RegIndex rs1, RegIndex rs2);
    ProgramBuilder &xor_(RegIndex rd, RegIndex rs1, RegIndex rs2);
    ProgramBuilder &sll(RegIndex rd, RegIndex rs1, RegIndex rs2);
    ProgramBuilder &srl(RegIndex rd, RegIndex rs1, RegIndex rs2);
    ProgramBuilder &sra(RegIndex rd, RegIndex rs1, RegIndex rs2);
    ProgramBuilder &mul(RegIndex rd, RegIndex rs1, RegIndex rs2);
    ProgramBuilder &div(RegIndex rd, RegIndex rs1, RegIndex rs2);
    ProgramBuilder &slt(RegIndex rd, RegIndex rs1, RegIndex rs2);
    ProgramBuilder &sltu(RegIndex rd, RegIndex rs1, RegIndex rs2);
    ProgramBuilder &cmpeq(RegIndex rd, RegIndex rs1, RegIndex rs2);

    // ALU register-immediate
    ProgramBuilder &addi(RegIndex rd, RegIndex rs1, int64_t imm);
    ProgramBuilder &andi(RegIndex rd, RegIndex rs1, int64_t imm);
    ProgramBuilder &ori(RegIndex rd, RegIndex rs1, int64_t imm);
    ProgramBuilder &xori(RegIndex rd, RegIndex rs1, int64_t imm);
    ProgramBuilder &slli(RegIndex rd, RegIndex rs1, int64_t imm);
    ProgramBuilder &srli(RegIndex rd, RegIndex rs1, int64_t imm);
    ProgramBuilder &srai(RegIndex rd, RegIndex rs1, int64_t imm);
    ProgramBuilder &slti(RegIndex rd, RegIndex rs1, int64_t imm);

    /** Load 64-bit immediate. */
    ProgramBuilder &li(RegIndex rd, int64_t imm);
    /** Register move (pseudo: add rd, rs, r0). */
    ProgramBuilder &mv(RegIndex rd, RegIndex rs);

    // Memory
    ProgramBuilder &ld(RegIndex rd, RegIndex base, int64_t offset);
    ProgramBuilder &st(RegIndex src, RegIndex base, int64_t offset);

    // Conditional branches to labels
    ProgramBuilder &beq(RegIndex a, RegIndex b, const std::string &l);
    ProgramBuilder &bne(RegIndex a, RegIndex b, const std::string &l);
    ProgramBuilder &blt(RegIndex a, RegIndex b, const std::string &l);
    ProgramBuilder &bge(RegIndex a, RegIndex b, const std::string &l);
    ProgramBuilder &bltu(RegIndex a, RegIndex b, const std::string &l);
    ProgramBuilder &bgeu(RegIndex a, RegIndex b, const std::string &l);

    // Unconditional control flow
    ProgramBuilder &j(const std::string &l);
    ProgramBuilder &jal(const std::string &l);    ///< call; link in r31
    ProgramBuilder &jr(RegIndex rs);
    ProgramBuilder &jalr(RegIndex rs);            ///< link in r31
    ProgramBuilder &ret();                        ///< jr r31

    ProgramBuilder &nop();
    ProgramBuilder &halt();

    /** Emit a raw instruction (escape hatch for tests). */
    ProgramBuilder &raw(const Inst &inst);

    // Initial data image
    /** Make room for @p words more data words, so a generator that
     *  knows its image size fills it without regrowing it. */
    ProgramBuilder &reserveData(size_t words);
    ProgramBuilder &initWord(uint64_t addr, uint64_t value);
    ProgramBuilder &initWords(uint64_t addr,
                              const std::vector<uint64_t> &values);
    /** Store a label's pc into the data image (jump tables). */
    ProgramBuilder &initWordLabel(uint64_t addr,
                                  const std::string &label);

    /**
     * Resolve all label fixups and produce the program.
     * Calls SSMT_FATAL on unbound labels.
     *
     * Consumes the builder: the code and data image move into the
     * Program rather than being copied, and the builder is left
     * empty (no instructions, data or labels).
     */
    Program build(std::string name);

  private:
    struct Fixup
    {
        uint64_t pc;
        std::string label;
    };

    struct DataFixup
    {
        size_t dataIndex;
        std::string label;
    };

    std::vector<Inst> code_;
    std::vector<DataInit> data_;
    std::unordered_map<std::string, uint64_t> labels_;
    std::vector<Fixup> fixups_;
    std::vector<DataFixup> dataFixups_;

    ProgramBuilder &emit(Opcode op, RegIndex rd, RegIndex rs1,
                         RegIndex rs2, int64_t imm);
    ProgramBuilder &emitBranch(Opcode op, RegIndex rs1, RegIndex rs2,
                               const std::string &label);
};

} // namespace isa
} // namespace ssmt

#endif // SSMT_ISA_BUILDER_HH
