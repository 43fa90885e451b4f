#include "core/provisioning.hpp"

#include <algorithm>
#include <set>

namespace sparcle {

std::vector<PathInfo> provision_paths(const Network& net,
                                      const TaskGraph& graph,
                                      const std::map<CtId, NcpId>& pinned,
                                      const CapacitySnapshot& start,
                                      const Assigner& assigner,
                                      const ProvisioningOptions& options,
                                      const StopPredicate& stop) {
  std::vector<PathInfo> paths;
  CapacitySnapshot residual = start;   // true remaining capacities
  std::set<ElementKey> used_elements;  // by any earlier path
  const bool any_failed = options.failed && !options.failed->empty();
  if (any_failed)
    for (const ElementKey& e : *options.failed)
      if (e.kind == ElementKey::Kind::kNcp)
        for (const LinkId l : net.incident_links(e.index))
          residual.link(l) = 0.0;
  const auto touches_failed = [&](const std::vector<ElementKey>& elements) {
    for (const ElementKey& e : elements)
      if (options.failed->contains(e)) return true;
    return false;
  };

  for (std::size_t iter = 0; iter < options.max_paths; ++iter) {
    AssignmentProblem problem;
    problem.net = &net;
    problem.graph = &graph;
    problem.pinned = pinned;
    problem.capacities = residual;
    if (options.diversity == PathDiversity::kPenalizeOverlap &&
        !used_elements.empty()) {
      // Shape the search away from already-used hardware; evaluation of
      // the found path still uses the unpenalized residual.
      problem.capacities.scale_elements(
          {used_elements.begin(), used_elements.end()},
          options.overlap_penalty);
    }

    const AssignmentResult res = assigner.assign(problem);
    if (!res.feasible) break;

    PathInfo info;
    info.placement = res.placement;
    info.load = LoadMap(net, graph, res.placement);
    // Rate against the *true* residual (penalties are search-only).
    const double true_rate = bottleneck_rate(residual, info.load);
    if (!(true_rate > 0)) break;
    info.standalone_rate = std::min(true_rate, options.rate_cap);
    info.elements = res.placement.used_elements(graph, net);
    if (any_failed && touches_failed(info.elements)) break;
    paths.push_back(std::move(info));

    if (stop && stop(paths)) break;
    residual.subtract_scaled(paths.back().load,
                             paths.back().standalone_rate);
    for (const ElementKey& e : paths.back().elements) used_elements.insert(e);
  }
  return paths;
}

}  // namespace sparcle
