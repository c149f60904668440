#include "memory/hierarchy.hh"

namespace ssmt
{
namespace memory
{

Hierarchy::Hierarchy(const HierarchyConfig &config)
    : config_(config),
      l1i_("l1i", config.l1iSize, config.l1iAssoc, config.lineBytes),
      l1d_("l1d", config.l1dSize, config.l1dAssoc, config.lineBytes),
      l2_("l2", config.l2Size, config.l2Assoc, config.lineBytes)
{
}

} // namespace memory
} // namespace ssmt
