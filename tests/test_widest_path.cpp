#include "core/widest_path.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "reference_assigner.hpp"
#include "workload/arrivals.hpp"
#include "workload/rng.hpp"
#include "workload/topologies.hpp"

namespace sparcle {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Network make_diamond_net() {
  // 0 -(10)- 1 -(20)- 3   and   0 -(15)- 2 -(5)- 3, plus 1 -(1)- 2.
  Network net(ResourceSchema::cpu_only());
  for (int i = 0; i < 4; ++i)
    net.add_ncp("n" + std::to_string(i), ResourceVector::scalar(1));
  net.add_link("l01", 0, 1, 10);
  net.add_link("l13", 1, 3, 20);
  net.add_link("l02", 0, 2, 15);
  net.add_link("l23", 2, 3, 5);
  net.add_link("l12", 1, 2, 1);
  return net;
}

/// One-off query on a fresh workspace.
template <typename WeightFn>
WidestPathResult widest(const Network& net, NcpId from, NcpId to,
                        const WeightFn& weight) {
  WidestPathWorkspace ws;
  return widest_path_buffered(net, from, to, weight, ws);
}

/// Brute-force widest path by enumerating all simple paths (DFS).
double brute_force_width(const Network& net, NcpId from, NcpId to,
                         const std::function<double(LinkId)>& weight) {
  double best = -1;
  std::vector<char> visited(net.ncp_count(), 0);
  std::function<void(NcpId, double)> dfs = [&](NcpId v, double width) {
    if (v == to) {
      best = std::max(best, width);
      return;
    }
    visited[v] = 1;
    for (LinkId l : net.incident_links(v)) {
      const double w = weight(l);
      if (!(w > 0)) continue;
      const NcpId u = net.other_end(l, v);
      if (visited[u]) continue;
      dfs(u, std::min(width, w));
    }
    visited[v] = 0;
  };
  dfs(from, kInf);
  return best;
}

TEST(WidestPath, PicksTheWiderArm) {
  const Network net = make_diamond_net();
  const auto r =
      widest(net, 0, 3, [&](LinkId l) { return net.link(l).bandwidth; });
  ASSERT_TRUE(r.reachable);
  EXPECT_DOUBLE_EQ(r.width, 10.0);  // via 0-1-3: min(10,20)
  ASSERT_EQ(r.links.size(), 2u);
  EXPECT_EQ(r.links[0], 0);
  EXPECT_EQ(r.links[1], 1);
}

TEST(WidestPath, SameEndpointsGiveInfiniteWidth) {
  const Network net = make_diamond_net();
  const auto r = widest(net, 2, 2, [](LinkId) { return 1.0; });
  EXPECT_TRUE(r.reachable);
  EXPECT_EQ(r.width, kInf);
  EXPECT_TRUE(r.links.empty());
}

TEST(WidestPath, UnreachableWhenCut) {
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("a", ResourceVector::scalar(1));
  net.add_ncp("b", ResourceVector::scalar(1));
  const auto r = widest(net, 0, 1, [](LinkId) { return 1.0; });
  EXPECT_FALSE(r.reachable);
}

TEST(WidestPath, ZeroWeightLinksAreUnusable) {
  const Network net = make_diamond_net();
  // Kill both arms except 0-2-3.
  const auto r = widest(net, 0, 3, [&](LinkId l) {
    return (l == 2 || l == 3) ? net.link(l).bandwidth : 0.0;
  });
  ASSERT_TRUE(r.reachable);
  EXPECT_DOUBLE_EQ(r.width, 5.0);
  ASSERT_EQ(r.links.size(), 2u);
}

TEST(WidestPath, ReturnedRouteIsContiguous) {
  const Network net = make_diamond_net();
  const auto r =
      widest(net, 1, 2, [&](LinkId l) { return net.link(l).bandwidth; });
  ASSERT_TRUE(r.reachable);
  NcpId at = 1;
  for (LinkId l : r.links) at = net.other_end(l, at);
  EXPECT_EQ(at, 2);
}

TEST(WidestPath, RouteWidthMatchesReportedWidth) {
  const Network net = make_diamond_net();
  const auto weight = [&](LinkId l) { return net.link(l).bandwidth; };
  const auto r = widest(net, 0, 3, weight);
  ASSERT_TRUE(r.reachable);
  double w = kInf;
  for (LinkId l : r.links) w = std::min(w, weight(l));
  EXPECT_DOUBLE_EQ(w, r.width);
}

TEST(WidestPath, OutOfRangeEndpointThrows) {
  const Network net = make_diamond_net();
  EXPECT_THROW(widest(net, 0, 9, [](LinkId) { return 1.0; }),
               std::invalid_argument);
}

TEST(BestTtPath, AccountsForExistingLoads) {
  const Network net = make_diamond_net();
  const CapacitySnapshot cap(net);
  LoadMap load = LoadMap::zeros(net);
  // Congest link l01 with 90 bits of existing TTs; probing a 10-bit TT
  // makes arm 0-1-3 width 10/(10+90) = 0.1 while 0-2-3 gives
  // min(15/10, 5/10) = 0.5.
  TaskGraph g(ResourceSchema::cpu_only());
  const CtId a = g.add_ct("a", ResourceVector::scalar(1));
  const CtId b = g.add_ct("b", ResourceVector::scalar(1));
  g.add_tt("big", 90, a, b);
  g.finalize();
  load.add_tt(g, 0, 0);

  WidestPathWorkspace ws;
  const auto r = best_tt_path(net, cap, load, 10.0, 0, 3, ws);
  ASSERT_TRUE(r.reachable);
  EXPECT_DOUBLE_EQ(r.width, 0.5);
  EXPECT_EQ(r.links[0], 2);  // via NCP 2
}

TEST(BestTtPath, ZeroBitTtOnEmptyLinksIsFree) {
  const Network net = make_diamond_net();
  const CapacitySnapshot cap(net);
  const LoadMap load = LoadMap::zeros(net);
  WidestPathWorkspace ws;
  const auto r = best_tt_path(net, cap, load, 0.0, 0, 3, ws);
  ASSERT_TRUE(r.reachable);
  EXPECT_EQ(r.width, kInf);
}

/// Property sweep: Dijkstra widest path == brute-force widest path on
/// random star / full topologies.
class WidestPathRandom : public ::testing::TestWithParam<int> {};

TEST_P(WidestPathRandom, MatchesBruteForceOnFullNetworks) {
  Rng rng(GetParam());
  const auto gen = workload::full_network(6, rng, workload::NetRanges{});
  const auto weight = [&](LinkId l) { return gen.net.link(l).bandwidth; };
  for (NcpId from = 0; from < 6; ++from)
    for (NcpId to = 0; to < 6; ++to) {
      if (from == to) continue;
      const auto r = widest(gen.net, from, to, weight);
      ASSERT_TRUE(r.reachable);
      EXPECT_NEAR(r.width, brute_force_width(gen.net, from, to, weight),
                  1e-12);
    }
}

TEST_P(WidestPathRandom, MatchesBruteForceOnStarNetworks) {
  Rng rng(GetParam() + 1000);
  const auto gen = workload::star_network(7, rng, workload::NetRanges{});
  const auto weight = [&](LinkId l) { return gen.net.link(l).bandwidth; };
  for (NcpId from = 0; from < 7; ++from)
    for (NcpId to = 0; to < 7; ++to) {
      if (from == to) continue;
      const auto r = widest(gen.net, from, to, weight);
      ASSERT_TRUE(r.reachable);
      EXPECT_NEAR(r.width, brute_force_width(gen.net, from, to, weight),
                  1e-12);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WidestPathRandom,
                         ::testing::Range(1, 21));

TEST(WidestPathWorkspace, ReusableAcrossCallsAndWeightFunctors) {
  const Network net = make_diamond_net();
  WidestPathWorkspace ws;

  // First functor: raw bandwidths.
  const auto bandwidth = [&](LinkId l) { return net.link(l).bandwidth; };
  for (int round = 0; round < 3; ++round) {  // reuse must not leak state
    const auto r = widest_path_buffered(net, 0, 3, bandwidth, ws);
    ASSERT_TRUE(r.reachable);
    EXPECT_DOUBLE_EQ(r.width, 10.0);
    ASSERT_EQ(r.links.size(), 2u);
    EXPECT_EQ(r.links[0], 0);
    EXPECT_EQ(r.links[1], 1);
  }

  // Second functor with a different type and different optimum: inverted
  // weights make the formerly-worst arm the widest one.
  struct Inverted {
    const Network* net;
    double operator()(LinkId l) const {
      return 100.0 - net->link(l).bandwidth;
    }
  };
  const auto inv = widest_path_buffered(net, 0, 3, Inverted{&net}, ws);
  ASSERT_TRUE(inv.reachable);
  EXPECT_DOUBLE_EQ(inv.width, 90.0);  // 0-1-2-3: min(90, 99, 95)
  // A fresh workspace finds the same route.
  const auto again = widest(net, 0, 3, Inverted{&net});
  EXPECT_EQ(inv.links, again.links);

  // Same workspace on a *different, larger* network.
  Network big(ResourceSchema::cpu_only());
  for (int i = 0; i < 12; ++i)
    big.add_ncp("m" + std::to_string(i), ResourceVector::scalar(1));
  for (int i = 0; i + 1 < 12; ++i)
    big.add_link("c" + std::to_string(i), i, i + 1, 7.0);
  const auto chain = widest_path_buffered(
      big, 0, 11, [&](LinkId l) { return big.link(l).bandwidth; }, ws);
  ASSERT_TRUE(chain.reachable);
  EXPECT_DOUBLE_EQ(chain.width, 7.0);
  EXPECT_EQ(chain.links.size(), 11u);
}

TEST(WidestWidthsTo, UnreachableSourcesReadZero) {
  Network cut(ResourceSchema::cpu_only());
  cut.add_ncp("a", ResourceVector::scalar(1));
  cut.add_ncp("b", ResourceVector::scalar(1));
  WidestPathWorkspace ws;
  std::vector<double> out;
  widest_widths_to(cut, 0, [](LinkId) { return 1.0; }, ws, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], kInf);  // the root itself
  EXPECT_EQ(out[1], 0.0);
  EXPECT_THROW(widest_widths_to(cut, 2, [](LinkId) { return 1.0; }, ws, out),
               std::invalid_argument);
}

TEST(WidestWidthsTo, WalksDirectedLinksAgainstTheArrow) {
  // 0 -> 1 -> 2 plus a wide 2 -> 0 back edge: towards root 2, node 0
  // reads the forward chain and node 2's back edge is no help.
  Network net(ResourceSchema::cpu_only());
  for (int i = 0; i < 3; ++i)
    net.add_ncp("n" + std::to_string(i), ResourceVector::scalar(1));
  net.add_directed_link("d01", 0, 1, 4.0);
  net.add_directed_link("d12", 1, 2, 3.0);
  net.add_directed_link("d20", 2, 0, 50.0);
  const auto bandwidth = [&](LinkId l) { return net.link(l).bandwidth; };
  WidestPathWorkspace ws;
  std::vector<double> out;
  widest_widths_to(net, 2, bandwidth, ws, out);
  EXPECT_EQ(out[0], 3.0);
  EXPECT_EQ(out[1], 3.0);
  widest_widths_to(net, 0, bandwidth, ws, out);
  EXPECT_EQ(out[2], 50.0);
  EXPECT_EQ(out[1], 3.0);  // 1 -> 2 -> 0
}

/// A link weight from a hostile mix: dead (zero or NaN), heavily tied
/// small integers, or spread reals.
double hostile_weight(Rng& rng) {
  const double u = rng.uniform(0.0, 1.0);
  return u < 0.1    ? 0.0
         : u < 0.15 ? std::numeric_limits<double>::quiet_NaN()
         : u < 0.5  ? static_cast<double>(rng.uniform_int(1, 3))
                    : rng.uniform(0.01, 100.0);
}

/// The tree kernel against the point-to-point one it replaces for γ: every
/// out[v] must be widest_path_buffered(v, root).width bit for bit (0 when v
/// cannot reach root), on random sparse graphs with directed links, dead
/// (zero or NaN) weights and heavily tied weights, both below and above
/// the workspace's 64-node bitmask cut-over.
TEST(WidestWidthsTo, MatchesPointToPointWidthsBitForBit) {
  Rng rng(20261017);
  WidestPathWorkspace tree_ws, point_ws;
  std::vector<double> out;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, trial % 2 ? 90 : 40));
    const bool directed = trial % 3 != 0;
    Network net(ResourceSchema::cpu_only());
    for (int v = 0; v < n; ++v)
      net.add_ncp("n" + std::to_string(v), ResourceVector::scalar(1));
    const int links = static_cast<int>(rng.uniform_int(0, 3 * n));
    std::vector<double> weight;
    for (int k = 0; k < links; ++k) {
      const NcpId a = static_cast<NcpId>(rng.uniform_int(0, n - 1));
      const NcpId b = static_cast<NcpId>(rng.uniform_int(0, n - 1));
      if (a == b) continue;
      if (directed && rng.bernoulli(0.7))
        net.add_directed_link("l" + std::to_string(k), a, b, 1.0);
      else
        net.add_link("l" + std::to_string(k), a, b, 1.0);
      weight.push_back(hostile_weight(rng));
    }
    const auto w = [&](LinkId l) { return weight[l]; };
    for (NcpId root = 0; root < n; ++root) {
      widest_widths_to(net, root, w, tree_ws, out);
      ASSERT_EQ(out.size(), static_cast<std::size_t>(n));
      for (NcpId v = 0; v < n; ++v) {
        const WidestPathResult r =
            widest_path_buffered(net, v, root, w, point_ws);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(out[v]),
                  std::bit_cast<std::uint64_t>(r.width))
            << "trial " << trial << " root " << root << " from " << v
            << ": tree " << out[v] << " vs point " << r.width;
        EXPECT_EQ(out[v] > 0, r.reachable);
      }
    }
  }
}

/// Counts of reachable queries with a one-link NCP at one end.
struct LeafCoverage {
  int source{0};  ///< from a leaf
  /// To a leaf: the kernel's early return in widest_path_buffered, and a
  /// leaf as the root of widest_widths_to's tree.
  int destination{0};
};

/// Algorithm 1's kernel against the heap-only loop it grew from,
/// testutil::reference_widest_dijkstra with no floor, which queues every
/// NCP: widest_path_buffered must match it on width (bit for bit) and on
/// the route read off its ws.prev, and widest_widths_to on every width.
template <typename WeightFn>
void expect_kernel_matches_heap_only(const Network& net, const WeightFn& w,
                                     LeafCoverage& seen,
                                     const std::string& what) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto leaf = [&](NcpId v) { return net.incident_links(v).size() == 1; };
  const NcpId n = static_cast<NcpId>(net.ncp_count());
  WidestPathWorkspace ws, ref_ws;
  std::vector<double> out;
  for (NcpId to = 0; to < n; ++to) {
    widest_widths_to(net, to, w, ws, out);
    for (NcpId from = 0; from < n; ++from) {
      double bound = 0.0;
      const bool reached = testutil::reference_widest_dijkstra(
                               net, from, to, w, ref_ws, -kInf, &bound) == 1;
      const double ref_width = reached ? ref_ws.phi(to) : 0.0;
      ASSERT_EQ(bits(out[from]), bits(ref_width))
          << what << ": tree rooted at " << to << ", from " << from << ": "
          << out[from] << " vs heap-only " << ref_width;
      if (from == to) continue;
      std::vector<LinkId> ref_links;
      for (NcpId at = to; reached && at != from;) {
        ref_links.push_back(ref_ws.prev(at));
        at = net.other_end(ref_links.back(), at);
      }
      std::reverse(ref_links.begin(), ref_links.end());
      const WidestPathResult r = widest_path_buffered(net, from, to, w, ws);
      ASSERT_EQ(r.reachable, reached) << what << ": " << from << " -> " << to;
      ASSERT_EQ(bits(r.width), bits(ref_width))
          << what << ": " << from << " -> " << to << ": " << r.width
          << " vs heap-only " << ref_width;
      ASSERT_EQ(r.links, ref_links) << what << ": " << from << " -> " << to;
      if (reached) {
        seen.source += leaf(from);
        seen.destination += leaf(to);
      }
    }
  }
}

/// The kernel settles one-link NCPs without queuing them.  Star-region
/// soak sites (every leaf hangs off its hub by one link) on both sides of
/// the workspace's 64-NCP bitmask cut-over, under their own bandwidths
/// and under the hostile mix.
TEST(WidestPathLeaves, SoakSitesMatchTheHeapOnlyLoop) {
  Rng rng(20261020);
  LeafCoverage seen;
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 40}, {4, 6}, {2, 32}, {4, 16}, {5, 13}, {2, 40}, {3, 30}};
  for (const auto& [regions, per_region] : shapes) {
    const Network net = workload::soak_site(regions, per_region, rng);
    const std::string what = "soak_site(" + std::to_string(regions) + ", " +
                             std::to_string(per_region) + ")";
    const auto bandwidth = [&](LinkId l) { return net.link(l).bandwidth; };
    expect_kernel_matches_heap_only(net, bandwidth, seen, what);
    std::vector<double> weight(net.link_count());
    for (double& x : weight) x = hostile_weight(rng);
    expect_kernel_matches_heap_only(
        net, [&](LinkId l) { return weight[l]; }, seen, what + ", hostile");
  }
  EXPECT_GT(seen.source, 0);
  EXPECT_GT(seen.destination, 0);
}

/// Random sparse cores with pendant leaves: undirected leaf links, leaf
/// links directed towards the leaf and away from it, zero and NaN leaf
/// weights, leaves joined by two parallel links (degree 2, so they must
/// still be queued), two-hop pendant chains and isolated NCPs.
TEST(WidestPathLeaves, RandomGraphsWithPendantLeavesMatchTheHeapOnlyLoop) {
  Rng rng(20261021);
  LeafCoverage seen;
  int parallel = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int core = static_cast<int>(rng.uniform_int(1, trial % 2 ? 60 : 20));
    const int leaves = static_cast<int>(rng.uniform_int(1, trial % 2 ? 30 : 12));
    Network net(ResourceSchema::cpu_only());
    std::vector<double> weight;
    const auto add_ncp = [&] {
      const NcpId id = static_cast<NcpId>(net.ncp_count());
      net.add_ncp("n" + std::to_string(id), ResourceVector::scalar(1));
      return id;
    };
    const auto add_link = [&](NcpId a, NcpId b, bool directed) {
      const std::string name = "l" + std::to_string(weight.size());
      if (directed)
        net.add_directed_link(name, a, b, 1.0);
      else
        net.add_link(name, a, b, 1.0);
      weight.push_back(hostile_weight(rng));
    };
    for (int v = 0; v < core; ++v) add_ncp();
    const int core_links = static_cast<int>(rng.uniform_int(0, 2 * core));
    for (int k = 0; k < core_links; ++k) {
      const NcpId a = static_cast<NcpId>(rng.uniform_int(0, core - 1));
      const NcpId b = static_cast<NcpId>(rng.uniform_int(0, core - 1));
      if (a != b) add_link(a, b, trial % 3 != 0 && rng.bernoulli(0.5));
    }
    for (int k = 0; k < leaves; ++k) {
      const NcpId hub = static_cast<NcpId>(rng.uniform_int(0, core - 1));
      const NcpId leaf = add_ncp();
      const double u = rng.uniform(0.0, 1.0);
      if (u < 0.5) {
        add_link(hub, leaf, false);
      } else if (u < 0.65) {
        add_link(hub, leaf, true);  // towards the leaf
      } else if (u < 0.8) {
        add_link(leaf, hub, true);  // away from the leaf
      } else if (u < 0.9) {
        add_link(hub, leaf, rng.bernoulli(0.3));  // two parallel links
        add_link(leaf, hub, rng.bernoulli(0.3));
        ++parallel;
      } else if (u < 0.95) {
        add_link(hub, leaf, false);  // leaf -- tip: a pendant chain
        add_link(leaf, add_ncp(), rng.bernoulli(0.3));
      } else {
        // left isolated
      }
    }
    expect_kernel_matches_heap_only(
        net, [&](LinkId l) { return weight[l]; }, seen,
        "trial " + std::to_string(trial));
  }
  EXPECT_GT(parallel, 0);
  EXPECT_GT(seen.source, 0);
  EXPECT_GT(seen.destination, 0);
}

/// Hand-built leaf cases: a leaf as source, as destination and as tree
/// root; a dead (zero or NaN) leaf link; and a leaf whose two parallel
/// links are relaxed narrow-first, which is wrong if it is settled on its
/// first relax.
TEST(WidestPathLeaves, HandBuiltLeafCases) {
  // hub 0 -- 1 (core, wide) plus leaves 2 (width 4), 3 (dead: 0),
  // 4 (dead: NaN) and 5, joined to hub 1 by a width-1 and a width-6 link.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Network net(ResourceSchema::cpu_only());
  for (int i = 0; i < 6; ++i)
    net.add_ncp("n" + std::to_string(i), ResourceVector::scalar(1));
  const std::vector<double> weight = {9, 4, 0, nan, 1, 6};
  net.add_link("core", 0, 1, 1.0);
  net.add_link("leaf2", 0, 2, 1.0);
  net.add_link("leaf3", 0, 3, 1.0);
  net.add_link("leaf4", 0, 4, 1.0);
  net.add_link("narrow5", 1, 5, 1.0);
  net.add_link("wide5", 1, 5, 1.0);
  const auto w = [&](LinkId l) { return weight[l]; };
  LeafCoverage seen;
  expect_kernel_matches_heap_only(net, w, seen, "hand-built");

  WidestPathWorkspace ws;
  const WidestPathResult to_leaf = widest_path_buffered(net, 1, 2, w, ws);
  ASSERT_TRUE(to_leaf.reachable);
  EXPECT_EQ(to_leaf.width, 4.0);
  EXPECT_EQ(to_leaf.links, (std::vector<LinkId>{0, 1}));
  const WidestPathResult from_leaf = widest_path_buffered(net, 2, 5, w, ws);
  ASSERT_TRUE(from_leaf.reachable);
  EXPECT_EQ(from_leaf.width, 4.0);
  EXPECT_EQ(from_leaf.links, (std::vector<LinkId>{1, 0, 5}));
  EXPECT_FALSE(widest_path_buffered(net, 0, 3, w, ws).reachable);
  EXPECT_FALSE(widest_path_buffered(net, 4, 0, w, ws).reachable);
  std::vector<double> out;
  widest_widths_to(net, 2, w, ws, out);
  EXPECT_EQ(out, (std::vector<double>{4, 4, kInf, 0, 0, 4}));
  widest_widths_to(net, 0, w, ws, out);
  EXPECT_EQ(out[5], 6.0);  // via the wide parallel link
}

TEST(ShortestHopPath, SkipsDeadLinks) {
  // A NaN-bandwidth link passes add_link's (<= 0) validation but is
  // unusable under the widest-path rule; shortest_hop_path must honor the
  // same rule instead of routing a TT over the dead link.
  const double dead = std::numeric_limits<double>::quiet_NaN();
  Network net(ResourceSchema::cpu_only());
  for (int i = 0; i < 3; ++i)
    net.add_ncp("n" + std::to_string(i), ResourceVector::scalar(1));
  net.add_link("dead02", 0, 2, dead);  // direct but dead
  net.add_link("l01", 0, 1, 5.0);
  net.add_link("l12", 1, 2, 5.0);

  const auto hop = shortest_hop_path(net, 0, 2);
  ASSERT_TRUE(hop.reachable);
  ASSERT_EQ(hop.links.size(), 2u);  // detour 0-1-2, not the dead link
  EXPECT_EQ(hop.links[0], 1);
  EXPECT_EQ(hop.links[1], 2);
  EXPECT_DOUBLE_EQ(hop.width, 5.0);

  // With only the dead link present the endpoints are disconnected.
  Network only_dead(ResourceSchema::cpu_only());
  only_dead.add_ncp("a", ResourceVector::scalar(1));
  only_dead.add_ncp("b", ResourceVector::scalar(1));
  only_dead.add_link("dead", 0, 1, dead);
  EXPECT_FALSE(shortest_hop_path(only_dead, 0, 1).reachable);
  const auto none = widest(
      only_dead, 0, 1, [&](LinkId l) { return only_dead.link(l).bandwidth; });
  EXPECT_FALSE(none.reachable);
}

}  // namespace
}  // namespace sparcle
