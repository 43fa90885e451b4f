#include "core/widest_path.hpp"

#include <queue>

namespace sparcle {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

WidestPathResult best_tt_path(const Network& net, const CapacitySnapshot& cap,
                              const LoadMap& load, double tt_bits, NcpId from,
                              NcpId to, WidestPathWorkspace& ws) {
  return widest_path_buffered(net, from, to,
                              TtPathWeight{&cap, &load, tt_bits}, ws);
}

WidestPathResult shortest_hop_path(const Network& net, NcpId from, NcpId to) {
  detail::check_endpoints(net, from, to, "shortest_hop_path");
  WidestPathResult result;
  if (from == to) {
    result.reachable = true;
    result.width = kInf;
    return result;
  }
  std::vector<LinkId> prev_link(net.ncp_count(), kInvalidId);
  std::vector<char> seen(net.ncp_count(), 0);
  std::queue<NcpId> q;
  q.push(from);
  seen[from] = 1;
  while (!q.empty() && !seen[to]) {
    const NcpId v = q.front();
    q.pop();
    for (LinkId l : net.incident_links(v)) {
      if (!net.can_traverse(l, v)) continue;
      // Same "unusable link" rule as widest_path_buffered: a link with
      // non-positive (or NaN) bandwidth is dead and must never carry a TT
      // route.
      if (!(net.link(l).bandwidth > 0)) continue;
      const NcpId u = net.other_end(l, v);
      if (seen[u]) continue;
      seen[u] = 1;
      prev_link[u] = l;
      q.push(u);
    }
  }
  if (!seen[to]) return result;
  result.reachable = true;
  result.width = kInf;
  for (NcpId at = to; at != from;) {
    const LinkId l = prev_link[at];
    result.links.push_back(l);
    result.width = std::min(result.width, net.link(l).bandwidth);
    at = net.other_end(l, at);
  }
  std::reverse(result.links.begin(), result.links.end());
  return result;
}

}  // namespace sparcle
