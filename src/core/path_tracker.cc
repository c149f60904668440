#include "core/path_tracker.hh"

#include "sim/logging.hh"

namespace ssmt
{
namespace core
{

PathTracker::PathTracker(int depth) : ring_(depth, 0), depth_(depth)
{
    SSMT_ASSERT(depth > 0, "path tracker depth must be positive");
}

} // namespace core
} // namespace ssmt

