#include "core/prediction.hpp"

#include <stdexcept>

namespace sparcle {

void apply_priority_shares(
    CapacitySnapshot& scratch,
    const std::unordered_map<ElementKey, double>& competing,
    double new_priority) {
  if (!(new_priority > 0))
    throw std::invalid_argument("apply_priority_shares: priority must be > 0");
  for (const auto& [e, total_priority] : competing) {
    if (!(total_priority > 0)) continue;  // stale zero-total entry: share 1
    const double share = new_priority / (new_priority + total_priority);
    if (e.kind == ElementKey::Kind::kNcp)
      scratch.ncp(e.index) *= share;
    else
      scratch.link(e.index) *= share;
  }
}

}  // namespace sparcle
