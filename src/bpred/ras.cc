#include "bpred/ras.hh"

#include "sim/logging.hh"

namespace ssmt
{
namespace bpred
{

Ras::Ras(uint32_t depth) : stack_(depth, 0)
{
    // Depth 0 would make every push index an empty vector (and the
    // wrap arithmetic divide by zero). MachineConfig::validate
    // reports rasDepth >= 1 with a friendlier diagnostic first.
    SSMT_ASSERT(depth >= 1, "RAS depth must be >= 1");
}

void
Ras::push(uint64_t return_pc)
{
    stack_[topIdx_] = return_pc;
    topIdx_ = (topIdx_ + 1) % stack_.size();
    if (size_ < stack_.size())
        size_++;
}

uint64_t
Ras::pop()
{
    if (size_ == 0)
        return 0;
    topIdx_ = (topIdx_ + stack_.size() - 1) % stack_.size();
    size_--;
    return stack_[topIdx_];
}

uint64_t
Ras::top() const
{
    if (size_ == 0)
        return 0;
    uint32_t idx = (topIdx_ + stack_.size() - 1) % stack_.size();
    return stack_[idx];
}

} // namespace bpred
} // namespace ssmt
