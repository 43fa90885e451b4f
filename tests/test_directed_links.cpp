/// \file test_directed_links.cpp
/// Directed-link support (footnote 2 of the paper: model the network as a
/// directed graph when link bandwidth is not shared across directions).

#include <gtest/gtest.h>

#include "core/sparcle_assigner.hpp"
#include "core/widest_path.hpp"
#include "sim/stream_simulator.hpp"
#include "workload/scenario_io.hpp"

namespace sparcle {
namespace {

/// A ring with directed links: 0 -> 1 -> 2 -> 0.
Network make_directed_ring() {
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("n0", ResourceVector::scalar(100));
  net.add_ncp("n1", ResourceVector::scalar(100));
  net.add_ncp("n2", ResourceVector::scalar(100));
  net.add_directed_link("d01", 0, 1, 10);
  net.add_directed_link("d12", 1, 2, 20);
  net.add_directed_link("d20", 2, 0, 30);
  return net;
}

TEST(DirectedLinks, CanTraverseRespectsDirection) {
  const Network net = make_directed_ring();
  EXPECT_TRUE(net.can_traverse(0, 0));   // 0 -> 1 forward
  EXPECT_FALSE(net.can_traverse(0, 1));  // backwards
  EXPECT_FALSE(net.can_traverse(0, 2));  // not an endpoint
  Network undirected(ResourceSchema::cpu_only());
  undirected.add_ncp("a", ResourceVector::scalar(1));
  undirected.add_ncp("b", ResourceVector::scalar(1));
  undirected.add_link("ab", 0, 1, 1);
  EXPECT_TRUE(undirected.can_traverse(0, 0));
  EXPECT_TRUE(undirected.can_traverse(0, 1));
}

TEST(DirectedLinks, WidestPathGoesTheLongWayAround) {
  const Network net = make_directed_ring();
  // 1 -> 0 cannot use d01 backwards: must go 1 -> 2 -> 0.
  WidestPathWorkspace ws;
  const auto r = widest_path_buffered(
      net, 1, 0, [&](LinkId l) { return net.link(l).bandwidth; }, ws);
  ASSERT_TRUE(r.reachable);
  ASSERT_EQ(r.links.size(), 2u);
  EXPECT_EQ(r.links[0], 1);  // d12
  EXPECT_EQ(r.links[1], 2);  // d20
  EXPECT_DOUBLE_EQ(r.width, 20.0);
}

TEST(DirectedLinks, ShortestHopPathRespectsDirection) {
  const Network net = make_directed_ring();
  const auto r = shortest_hop_path(net, 2, 1);
  ASSERT_TRUE(r.reachable);
  EXPECT_EQ(r.links.size(), 2u);  // 2 -> 0 -> 1
}

TEST(DirectedLinks, UnreachableWhenAllArrowsPointWrong) {
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("a", ResourceVector::scalar(1));
  net.add_ncp("b", ResourceVector::scalar(1));
  net.add_directed_link("ab", 0, 1, 10);
  WidestPathWorkspace ws;
  const auto r =
      widest_path_buffered(net, 1, 0, [](LinkId) { return 1.0; }, ws);
  EXPECT_FALSE(r.reachable);
}

TEST(DirectedLinks, PlacementValidationRejectsBackwardsHop) {
  const Network net = make_directed_ring();
  TaskGraph g(ResourceSchema::cpu_only());
  const CtId s = g.add_ct("s", ResourceVector::scalar(0));
  const CtId t = g.add_ct("t", ResourceVector::scalar(1));
  g.add_tt("st", 1, s, t);
  g.finalize();
  Placement p(g);
  p.place_ct(s, 1);
  p.place_ct(t, 0);
  p.place_tt(0, {0});  // d01 backwards: 1 -> 0
  std::string err;
  EXPECT_FALSE(p.validate(g, net, &err));
  EXPECT_NE(err.find("against its direction"), std::string::npos);
  // The legal route the long way around passes.
  Placement ok(g);
  ok.place_ct(s, 1);
  ok.place_ct(t, 0);
  ok.place_tt(0, {1, 2});
  EXPECT_TRUE(ok.validate(g, net, &err)) << err;
}

TEST(DirectedLinks, AsymmetricUplinkShapesThePlacement) {
  // Fat uplink to the edge server, thin downlink back: offloading is only
  // worthwhile because the result stream is small.
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("device", ResourceVector::scalar(10));
  net.add_ncp("edge", ResourceVector::scalar(1000));
  net.add_directed_link("up", 0, 1, 1000);
  net.add_directed_link("down", 1, 0, 50);
  TaskGraph g(ResourceSchema::cpu_only());
  const CtId cam = g.add_ct("cam", ResourceVector::scalar(0));
  const CtId work = g.add_ct("work", ResourceVector::scalar(100));
  const CtId out = g.add_ct("out", ResourceVector::scalar(0));
  g.add_tt("frames", 100, cam, work);
  g.add_tt("result", 10, work, out);
  g.finalize();
  AssignmentProblem p;
  p.net = &net;
  p.graph = &g;
  p.capacities = CapacitySnapshot(net);
  p.pinned = {{cam, 0}, {out, 0}};
  const AssignmentResult r = SparcleAssigner().assign(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.placement.ct_host(work), 1);
  // frames on the uplink (1000/100 = 10), result on the downlink
  // (50/10 = 5), edge cpu 1000/100 = 10: bottleneck is the downlink.
  EXPECT_DOUBLE_EQ(r.rate, 5.0);
}

TEST(DirectedLinks, SimulatorRunsDirectedRoutes) {
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("a", ResourceVector::scalar(100));
  net.add_ncp("b", ResourceVector::scalar(100));
  net.add_directed_link("up", 0, 1, 10);
  TaskGraph g(ResourceSchema::cpu_only());
  const CtId s = g.add_ct("s", ResourceVector::scalar(0));
  const CtId t = g.add_ct("t", ResourceVector::scalar(1));
  g.add_tt("st", 5, s, t);
  g.finalize();
  Placement p(g);
  p.place_ct(s, 0);
  p.place_ct(t, 1);
  p.place_tt(0, {0});
  sim::StreamSimulator sim(net);
  sim.add_stream(g, p, 1.0);
  const auto rep = sim.run(200, 50);
  EXPECT_NEAR(rep.streams[0].throughput, 1.0, 0.05);
}

TEST(DirectedLinks, ScenarioFileRoundTrip) {
  const std::string text = R"(
ncp a 10
ncp b 10
dlink up a b 100
link both a b 50
app x be 1
  ct s 0
  ct t 1
  tt st 1 s t
  pin s a
  pin t b
end
)";
  const auto sf = workload::parse_scenario_text(text);
  EXPECT_TRUE(sf.net.link(0).directed);
  EXPECT_FALSE(sf.net.link(1).directed);
  const auto again =
      workload::parse_scenario_text(workload::write_scenario(sf));
  EXPECT_TRUE(again.net.link(0).directed);
  EXPECT_FALSE(again.net.link(1).directed);
}

}  // namespace
}  // namespace sparcle
