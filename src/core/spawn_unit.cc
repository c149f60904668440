#include "core/spawn_unit.hh"

#include "isa/inst.hh"

namespace ssmt
{
namespace core
{

PathMatcher::PathMatcher(const MicroThread *thread)
    : thread_(thread),
      status_(!thread || thread->expected.empty() ? Status::Complete
                                                  : Status::Live)
{
}

} // namespace core
} // namespace ssmt

