#include "model/network.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "model/capacity.hpp"
#include "model/placement.hpp"
#include "workload/topologies.hpp"

namespace sparcle {
namespace {

Network make_triangle() {
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("a", ResourceVector::scalar(10), 0.1);
  net.add_ncp("b", ResourceVector::scalar(20), 0.2);
  net.add_ncp("c", ResourceVector::scalar(30));
  net.add_link("ab", 0, 1, 100, 0.05);
  net.add_link("bc", 1, 2, 200);
  net.add_link("ca", 2, 0, 300);
  return net;
}

TEST(Network, CountsAndAccessors) {
  const Network net = make_triangle();
  EXPECT_EQ(net.ncp_count(), 3u);
  EXPECT_EQ(net.link_count(), 3u);
  EXPECT_EQ(net.ncp(1).name, "b");
  EXPECT_DOUBLE_EQ(net.link(1).bandwidth, 200.0);
}

TEST(Network, IncidentLinks) {
  const Network net = make_triangle();
  EXPECT_EQ(net.incident_links(0).size(), 2u);  // ab and ca
  EXPECT_EQ(net.incident_links(1).size(), 2u);
}

TEST(Network, IncidentLinksCsrStaysCoherentAcrossMutations) {
  // The flat CSR adjacency is rebuilt lazily; interleaving reads with
  // add_ncp/add_link must always observe the up-to-date, ascending-id
  // incident lists.
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("a", ResourceVector::scalar(1));
  net.add_ncp("b", ResourceVector::scalar(1));
  net.add_link("ab", 0, 1, 10);
  ASSERT_EQ(net.incident_links(0).size(), 1u);
  EXPECT_EQ(net.incident_links(0)[0], 0);

  net.add_ncp("c", ResourceVector::scalar(1));
  EXPECT_TRUE(net.incident_links(2).empty());  // new NCP visible, degree 0

  net.add_link("bc", 1, 2, 20);
  net.add_link("ca", 2, 0, 30);
  const auto at0 = net.incident_links(0);
  ASSERT_EQ(at0.size(), 2u);
  EXPECT_EQ(at0[0], 0);  // ascending link-id order within each NCP
  EXPECT_EQ(at0[1], 2);
  const auto at2 = net.incident_links(2);
  ASSERT_EQ(at2.size(), 2u);
  EXPECT_EQ(at2[0], 1);
  EXPECT_EQ(at2[1], 2);
  EXPECT_THROW(net.incident_links(5), std::out_of_range);
}

TEST(Network, OtherEnd) {
  const Network net = make_triangle();
  EXPECT_EQ(net.other_end(0, 0), 1);
  EXPECT_EQ(net.other_end(0, 1), 0);
  EXPECT_THROW(net.other_end(0, 2), std::invalid_argument);
}

TEST(Network, ConnectedDetectsPartition) {
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("a", ResourceVector::scalar(1));
  net.add_ncp("b", ResourceVector::scalar(1));
  net.add_ncp("c", ResourceVector::scalar(1));
  net.add_link("ab", 0, 1, 10);
  EXPECT_FALSE(net.connected());
  net.add_link("bc", 1, 2, 10);
  EXPECT_TRUE(net.connected());
}

TEST(Network, FailProbByElementKey) {
  const Network net = make_triangle();
  EXPECT_DOUBLE_EQ(net.fail_prob(ElementKey::ncp(0)), 0.1);
  EXPECT_DOUBLE_EQ(net.fail_prob(ElementKey::link(0)), 0.05);
  EXPECT_DOUBLE_EQ(net.fail_prob(ElementKey::ncp(2)), 0.0);
}

TEST(Network, RejectsBadInputs) {
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("a", ResourceVector::scalar(1));
  EXPECT_THROW(net.add_ncp("bad", ResourceVector{1.0, 2.0}),
               std::invalid_argument);  // schema mismatch
  EXPECT_THROW(net.add_ncp("bad", ResourceVector::scalar(1), 1.5),
               std::invalid_argument);  // failure probability
  EXPECT_THROW(net.add_link("self", 0, 0, 10), std::invalid_argument);
  EXPECT_THROW(net.add_link("dangling", 0, 9, 10), std::invalid_argument);
  EXPECT_THROW(net.add_link("zero-bw", 0, 0, 0), std::invalid_argument);
}

TEST(Network, RejectsNonFiniteOrNegativeNcpCapacity) {
  // An infinite capacity reaches the PF solve as a non-finite constraint
  // row; NaN and negative capacities have no meaning.  Zero stays legal.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Network net(ResourceSchema({"cpu", "mem"}));
  for (const double bad : {inf, -inf, nan, -5.0}) {
    EXPECT_THROW(net.add_ncp("bad", ResourceVector{bad, 1.0}),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(net.add_ncp("bad", ResourceVector{1.0, bad}),
                 std::invalid_argument)
        << bad;
  }
  EXPECT_EQ(net.ncp_count(), 0u);
  net.add_ncp("idle", ResourceVector{0.0, 0.0});
  EXPECT_EQ(net.ncp_count(), 1u);
}

TEST(Network, RejectsInfiniteBandwidthAndKeepsNanAsADeadLink) {
  // Algorithm 1 would route over a +inf link, and then every BE app on it
  // would fail its PF solve.  NaN is the documented dead link
  // (ShortestHopPath.SkipsDeadLinks).
  const double inf = std::numeric_limits<double>::infinity();
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("a", ResourceVector::scalar(1));
  net.add_ncp("b", ResourceVector::scalar(1));
  EXPECT_THROW(net.add_link("inf", 0, 1, inf), std::invalid_argument);
  EXPECT_THROW(net.add_directed_link("dinf", 0, 1, inf),
               std::invalid_argument);
  EXPECT_THROW(net.add_link("neginf", 0, 1, -inf), std::invalid_argument);
  EXPECT_THROW(net.add_link("neg", 0, 1, -5), std::invalid_argument);
  EXPECT_EQ(net.link_count(), 0u);
  net.add_link("dead", 0, 1, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(net.link_count(), 1u);
}

TEST(Network, RejectsNanFailureProbability) {
  // NaN fails every comparison, so the range test must reject whatever
  // is not inside [0, 1) rather than what is outside it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Network net(ResourceSchema::cpu_only());
  EXPECT_THROW(net.add_ncp("bad", ResourceVector::scalar(1), nan),
               std::invalid_argument);
  net.add_ncp("a", ResourceVector::scalar(1));
  net.add_ncp("b", ResourceVector::scalar(1));
  EXPECT_THROW(net.add_link("bad", 0, 1, 1.0, nan), std::invalid_argument);
  EXPECT_THROW(net.add_directed_link("bad", 0, 1, 1.0, nan),
               std::invalid_argument);
  EXPECT_EQ(net.ncp_count(), 2u);
  EXPECT_EQ(net.link_count(), 0u);
}

TEST(ElementKey, OrderingAndHash) {
  const ElementKey a = ElementKey::ncp(1);
  const ElementKey b = ElementKey::link(1);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, ElementKey::ncp(1));
  EXPECT_NE(std::hash<ElementKey>{}(a), std::hash<ElementKey>{}(b));
}

TEST(CapacitySnapshot, StartsAtFullCapacity) {
  const Network net = make_triangle();
  const CapacitySnapshot cap(net);
  EXPECT_DOUBLE_EQ(cap.ncp(0)[0], 10.0);
  EXPECT_DOUBLE_EQ(cap.link(2), 300.0);
  EXPECT_DOUBLE_EQ(cap.element(ElementKey::ncp(1), 0), 20.0);
  EXPECT_DOUBLE_EQ(cap.element(ElementKey::link(1), 0), 200.0);
}

TEST(CapacitySnapshot, ScaleElements) {
  const Network net = make_triangle();
  CapacitySnapshot cap(net);
  cap.scale_elements({ElementKey::ncp(0), ElementKey::link(1)}, 0.5);
  EXPECT_DOUBLE_EQ(cap.ncp(0)[0], 5.0);
  EXPECT_DOUBLE_EQ(cap.link(1), 100.0);
  EXPECT_DOUBLE_EQ(cap.ncp(1)[0], 20.0);  // untouched
}

TEST(CapacitySnapshot, SubtractScaledClampsAtZero) {
  const Network net = make_triangle();
  CapacitySnapshot cap(net);
  LoadMap load = LoadMap::zeros(net);
  // Put 3 cpu units of per-unit load on NCP 0 and 50 bits on link 0.
  TaskGraph g(ResourceSchema::cpu_only());
  const CtId x = g.add_ct("x", ResourceVector::scalar(3));
  const CtId y = g.add_ct("y", ResourceVector::scalar(1));
  g.add_tt("t", 50, x, y);
  g.finalize();
  load.add_ct(g, x, 0);
  load.add_tt(g, 0, 0);

  cap.subtract_scaled(load, 2.0);  // rate 2: 6 cpu, 100 bits
  EXPECT_DOUBLE_EQ(cap.ncp(0)[0], 4.0);
  EXPECT_DOUBLE_EQ(cap.link(0), 0.0);  // 100 - 100
  cap.subtract_scaled(load, 10.0);     // would go negative: clamps
  EXPECT_DOUBLE_EQ(cap.ncp(0)[0], 0.0);
  EXPECT_DOUBLE_EQ(cap.link(0), 0.0);
}

TEST(Topologies, StarShape) {
  Rng rng(3);
  const auto gen = workload::star_network(8, rng, workload::NetRanges{});
  EXPECT_EQ(gen.net.ncp_count(), 8u);
  EXPECT_EQ(gen.net.link_count(), 7u);
  EXPECT_TRUE(gen.net.connected());
  // Every link touches the hub.
  for (LinkId l = 0; l < 7; ++l) {
    const Link& lk = gen.net.link(l);
    EXPECT_TRUE(lk.a == 0 || lk.b == 0);
  }
  EXPECT_NE(gen.source, gen.sink);
}

TEST(Topologies, LinearShape) {
  Rng rng(3);
  const auto gen = workload::linear_network(5, rng, workload::NetRanges{});
  EXPECT_EQ(gen.net.link_count(), 4u);
  EXPECT_TRUE(gen.net.connected());
  EXPECT_EQ(gen.source, 0);
  EXPECT_EQ(gen.sink, 4);
}

TEST(Topologies, FullShape) {
  Rng rng(3);
  const auto gen = workload::full_network(6, rng, workload::NetRanges{});
  EXPECT_EQ(gen.net.link_count(), 15u);  // C(6,2)
  EXPECT_TRUE(gen.net.connected());
}

TEST(Topologies, CapacitiesWithinRanges) {
  Rng rng(11);
  workload::NetRanges r;
  r.ncp_min = 10;
  r.ncp_max = 20;
  r.bw_min = 100;
  r.bw_max = 200;
  const auto gen = workload::star_network(6, rng, r);
  for (NcpId j = 0; j < 6; ++j) {
    EXPECT_GE(gen.net.ncp(j).capacity[0], 10.0);
    EXPECT_LE(gen.net.ncp(j).capacity[0], 20.0);
  }
  for (LinkId l = 0; l < 5; ++l) {
    EXPECT_GE(gen.net.link(l).bandwidth, 100.0);
    EXPECT_LE(gen.net.link(l).bandwidth, 200.0);
  }
}

TEST(Testbed, MatchesTableOne) {
  const auto tb = workload::testbed_network(10.0);
  EXPECT_EQ(tb.net.ncp_count(), 7u);  // 6 field + cloud
  EXPECT_EQ(tb.net.link_count(), 8u); // 7 field + cloud attachment
  EXPECT_DOUBLE_EQ(tb.net.ncp(tb.cloud).capacity[0], 15200.0);
  for (NcpId j = 0; j < 6; ++j)
    EXPECT_DOUBLE_EQ(tb.net.ncp(j).capacity[0], 3000.0);
  // The cloud link is 100 Mbps; field links are 10 Mbps.
  bool found_cloud_link = false;
  for (LinkId l = 0; l < 8; ++l) {
    const Link& lk = tb.net.link(l);
    if (lk.a == tb.cloud || lk.b == tb.cloud) {
      EXPECT_DOUBLE_EQ(lk.bandwidth, 100e6);
      found_cloud_link = true;
    } else {
      EXPECT_DOUBLE_EQ(lk.bandwidth, 10e6);
    }
  }
  EXPECT_TRUE(found_cloud_link);
  EXPECT_TRUE(tb.net.connected());
}

}  // namespace
}  // namespace sparcle
