/**
 * @file
 * 64K-entry target cache for indirect branches (Table 3), indexed by
 * a hash of the branch PC and the global taken-branch history so that
 * different dynamic contexts of one indirect jump can hold different
 * targets (Chang/Hao/Patt-style).
 */

#ifndef SSMT_BPRED_TARGET_CACHE_HH
#define SSMT_BPRED_TARGET_CACHE_HH

#include <cstdint>

#include "sim/table_pool.hh"

namespace ssmt
{
namespace bpred
{

class TargetCache
{
  public:
    explicit TargetCache(uint64_t num_entries = 64 * 1024);

    /** Predict the target of the indirect branch at @p pc. */
    uint64_t predict(uint64_t pc) const;

    /** Train with the actual @p target and rotate it into history. */
    void update(uint64_t pc, uint64_t target);

  private:
    sim::TableVector<uint64_t> table_;
    uint64_t mask_;
    uint64_t history_ = 0;

    uint64_t index(uint64_t pc) const;
};

} // namespace bpred
} // namespace ssmt

#endif // SSMT_BPRED_TARGET_CACHE_HH
