#pragma once

#include <functional>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "core/assignment.hpp"
#include "model/capacity.hpp"
#include "model/placement.hpp"

/// \file provisioning.hpp
/// Multipath provisioning: finding additional task-assignment paths for
/// one application (§IV-D).  The paper's loop re-runs the assignment on
/// residual capacities (each search sees the capacities minus what the
/// previous paths consume).  As an extension this module also offers a
/// *diversity-seeking* mode that additionally penalizes the elements the
/// previous paths touch, steering later paths onto disjoint hardware —
/// which is what availability (the reason for multiple paths in the first
/// place) actually rewards.

namespace sparcle {

/// One committed task-assignment path of an application.
struct PathInfo {
  Placement placement;          ///< the complete CT/TT mapping
  LoadMap load;                 ///< per-unit loads of this path
  double standalone_rate{0.0};  ///< bottleneck rate when the path was found
  std::vector<ElementKey> elements;  ///< distinct elements (availability)
};

/// How subsequent path searches treat the elements of earlier paths.
enum class PathDiversity {
  kResidualOnly,     ///< the paper's §IV-D loop: subtract consumption only
  kPenalizeOverlap,  ///< extension: also scale used elements' capacities
};

/// Knobs for provision_paths().
struct ProvisioningOptions {
  std::size_t max_paths{4};  ///< stop after this many paths
  /// How later searches treat elements used by earlier paths.
  PathDiversity diversity{PathDiversity::kResidualOnly};
  /// Capacity multiplier applied (during the search only) to elements
  /// already used by earlier paths, in kPenalizeOverlap mode.
  double overlap_penalty{0.3};
  /// Cap on each path's provisioned rate (GR paths are capped at the
  /// requested minimum rate); +infinity for no cap.
  double rate_cap{std::numeric_limits<double>::infinity()};
  /// Failed elements (null: none): no path may touch one.  They carry zero
  /// capacity in `start` already, but routing reads only link widths, a
  /// zero-requirement CT fits a zero-capacity host and a zero-bit TT
  /// crosses a zero-width link.  So the search zeroes every link incident
  /// to a failed NCP, and a path that still touches a failed element ends
  /// the search.
  const std::set<ElementKey>* failed{nullptr};
};

/// Called after each found path; return true to stop searching.
using StopPredicate = std::function<bool(const std::vector<PathInfo>&)>;

/// Finds up to options.max_paths paths for the application (graph + pins)
/// on top of `start` capacities using `assigner`.  Every path's
/// standalone_rate is evaluated against the true residual capacities
/// (penalties only shape the search).  No path touches an element of
/// options.failed.  Stops early when `stop` returns true or no further
/// feasible path exists.
std::vector<PathInfo> provision_paths(const Network& net,
                                      const TaskGraph& graph,
                                      const std::map<CtId, NcpId>& pinned,
                                      const CapacitySnapshot& start,
                                      const Assigner& assigner,
                                      const ProvisioningOptions& options,
                                      const StopPredicate& stop);

}  // namespace sparcle
