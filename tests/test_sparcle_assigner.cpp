#include "core/sparcle_assigner.hpp"

#include <gtest/gtest.h>

#include "baselines/exhaustive.hpp"
#include "workload/scenarios.hpp"
#include "workload/task_graphs.hpp"
#include "workload/topologies.hpp"

namespace sparcle {
namespace {

using workload::BottleneckCase;
using workload::GraphKind;
using workload::Scenario;
using workload::ScenarioSpec;
using workload::TopologyKind;

TEST(SparcleAssigner, OffloadsToTheBigNode) {
  // A weak source node connected to a strong helper: SPARCLE must offload
  // the heavy CT when the link can carry the stream.
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("weak", ResourceVector::scalar(10));
  net.add_ncp("strong", ResourceVector::scalar(1000));
  net.add_link("l", 0, 1, 1000);
  TaskGraph g(ResourceSchema::cpu_only());
  const CtId s = g.add_ct("s", ResourceVector::scalar(0));
  const CtId heavy = g.add_ct("heavy", ResourceVector::scalar(100));
  const CtId t = g.add_ct("t", ResourceVector::scalar(0));
  g.add_tt("st", 10, s, heavy);
  g.add_tt("ht", 1, heavy, t);
  g.finalize();

  AssignmentProblem p;
  p.net = &net;
  p.graph = &g;
  p.capacities = CapacitySnapshot(net);
  p.pinned = {{s, 0}, {t, 0}};
  const AssignmentResult r = SparcleAssigner().assign(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.placement.ct_host(heavy), 1);
  EXPECT_DOUBLE_EQ(r.rate, 10.0);  // strong cpu 1000/100, links 1000/11 > 10
}

TEST(SparcleAssigner, StaysLocalWhenLinksAreTight) {
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("weak", ResourceVector::scalar(10));
  net.add_ncp("strong", ResourceVector::scalar(1000));
  net.add_link("l", 0, 1, 1);  // nearly no bandwidth
  TaskGraph g(ResourceSchema::cpu_only());
  const CtId s = g.add_ct("s", ResourceVector::scalar(0));
  const CtId heavy = g.add_ct("heavy", ResourceVector::scalar(100));
  const CtId t = g.add_ct("t", ResourceVector::scalar(0));
  g.add_tt("st", 10, s, heavy);
  g.add_tt("ht", 1, heavy, t);
  g.finalize();

  AssignmentProblem p;
  p.net = &net;
  p.graph = &g;
  p.capacities = CapacitySnapshot(net);
  p.pinned = {{s, 0}, {t, 0}};
  const AssignmentResult r = SparcleAssigner().assign(p);
  ASSERT_TRUE(r.feasible);
  // Offloading would cap the rate at 1/10; local processing achieves
  // 10/100 = 0.1 == offloaded... strictly local wins via the second TT:
  // offloaded: min(1000/100, 1/10, 1/1) = 0.1 vs local 10/100 = 0.1.
  // Either is optimal here; the rate must be 0.1.
  EXPECT_NEAR(r.rate, 0.1, 1e-12);
}

TEST(SparcleAssigner, MostConstrainedPassCommitsAnUnboundedCandidate) {
  // source -> {relay, heavy} -> sink, both endpoints pinned to the small
  // NCP.  Round 1 commits `heavy` on the big NCP (γ 10 against the
  // relay's +∞).  In round 2 the relay's best γ is +∞: a zero-cost CT on
  // an idle host whose relatives share that host has an infinite node
  // term and infinite width terms.  With no policy installed the
  // assigner runs DefaultPolicy, which still commits that candidate.
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("small", ResourceVector::scalar(100));
  net.add_ncp("big", ResourceVector::scalar(1000));
  net.add_link("l", 0, 1, 1000);
  TaskGraph g(ResourceSchema::cpu_only());
  const CtId s = g.add_ct("source", ResourceVector::scalar(0));
  const CtId relay = g.add_ct("relay", ResourceVector::scalar(0));
  const CtId heavy = g.add_ct("heavy", ResourceVector::scalar(100));
  const CtId t = g.add_ct("sink", ResourceVector::scalar(0));
  g.add_tt("sr", 10, s, relay);
  g.add_tt("sh", 10, s, heavy);
  g.add_tt("rt", 10, relay, t);
  g.add_tt("ht", 10, heavy, t);
  g.finalize();

  AssignmentProblem p;
  p.net = &net;
  p.graph = &g;
  p.capacities = CapacitySnapshot(net);
  p.pinned = {{s, 0}, {t, 0}};
  SparcleAssignerOptions options;
  options.ranking = SparcleAssignerOptions::Ranking::kMostConstrainedFirst;
  const AssignmentResult r = SparcleAssigner(options).assign(p);
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_EQ(r.placement.ct_host(heavy), 1);
  EXPECT_EQ(r.placement.ct_host(relay), 0);
  EXPECT_DOUBLE_EQ(r.rate, 10.0);  // big cpu 1000/100; link 1000/20 = 50
}

TEST(SparcleAssigner, ProducesValidPlacementOnScenarios) {
  for (int seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    ScenarioSpec spec;
    spec.topology = TopologyKind::kStar;
    spec.graph = GraphKind::kDiamond;
    spec.bottleneck = BottleneckCase::kBalanced;
    const Scenario sc = workload::make_scenario(spec, rng);
    const AssignmentProblem p = sc.problem();
    const AssignmentResult r = SparcleAssigner().assign(p);
    ASSERT_TRUE(r.feasible) << "seed " << seed << ": " << r.message;
    std::string err;
    EXPECT_TRUE(r.placement.validate(*sc.graph, sc.net, &err)) << err;
    // Pins respected.
    for (const auto& [ct, ncp] : sc.pinned)
      EXPECT_EQ(r.placement.ct_host(ct), ncp);
    // Reported rate equals the recomputed bottleneck rate.
    EXPECT_NEAR(r.rate,
                bottleneck_rate(sc.net, *sc.graph, r.placement, p.capacities),
                1e-12);
  }
}

/// Parameterized optimality check: on small instances SPARCLE should land
/// within a constant factor of the exhaustive optimum, and never above it.
class SparcleVsOptimal
    : public ::testing::TestWithParam<std::tuple<int, BottleneckCase>> {};

TEST_P(SparcleVsOptimal, NeverBeatsAndUsuallyMatchesOptimal) {
  const auto [seed, bn] = GetParam();
  Rng rng(seed);
  ScenarioSpec spec;
  spec.topology = TopologyKind::kLinear;
  spec.graph = GraphKind::kLinear;
  spec.bottleneck = bn;
  spec.ncps = 4;
  spec.middle_cts = 3;
  const Scenario sc = workload::make_scenario(spec, rng);
  const AssignmentProblem p = sc.problem();

  const AssignmentResult ours = SparcleAssigner().assign(p);
  const AssignmentResult best = ExhaustiveAssigner().assign(p);
  ASSERT_TRUE(best.feasible);
  ASSERT_TRUE(ours.feasible);
  EXPECT_LE(ours.rate, best.rate + 1e-9);
  // Greedy heuristics have occasional bad instances; the paper's claim is
  // about the distribution (checked in SparcleAssigner.NearOptimalOnAverage
  // below), so the per-instance floor is loose.
  EXPECT_GE(ours.rate, 0.3 * best.rate)
      << "SPARCLE fell far below optimal (seed " << seed << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SparcleVsOptimal,
    ::testing::Combine(::testing::Range(1, 16),
                       ::testing::Values(BottleneckCase::kNcp,
                                         BottleneckCase::kLink,
                                         BottleneckCase::kBalanced)));

TEST(SparcleAssigner, NearOptimalOnAverage) {
  // The Fig. 8 claim in aggregate: across random instances of every
  // bottleneck regime the mean SPARCLE/optimal ratio stays high.
  for (BottleneckCase bn : {BottleneckCase::kNcp, BottleneckCase::kLink,
                            BottleneckCase::kBalanced}) {
    double ratio_sum = 0;
    int n = 0;
    for (int seed = 1; seed <= 25; ++seed) {
      Rng rng(seed + 100);
      ScenarioSpec spec;
      spec.topology = TopologyKind::kLinear;
      spec.graph = GraphKind::kLinear;
      spec.bottleneck = bn;
      spec.ncps = 4;
      spec.middle_cts = 3;
      const Scenario sc = workload::make_scenario(spec, rng);
      const AssignmentProblem p = sc.problem();
      const double best = ExhaustiveAssigner().assign(p).rate;
      if (best <= 0) continue;
      ratio_sum += SparcleAssigner().assign(p).rate / best;
      ++n;
    }
    ASSERT_GT(n, 0);
    EXPECT_GE(ratio_sum / n, 0.75) << to_string(bn);
  }
}

TEST(SparcleAssigner, MonotoneInCapacity) {
  // Doubling every capacity cannot reduce the achieved rate.
  for (int seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    ScenarioSpec spec;
    spec.graph = GraphKind::kDiamond;
    const Scenario sc = workload::make_scenario(spec, rng);
    AssignmentProblem p = sc.problem();
    const double base = SparcleAssigner().assign(p).rate;
    for (NcpId j = 0; j < static_cast<NcpId>(sc.net.ncp_count()); ++j)
      p.capacities.ncp(j) *= 2.0;
    for (LinkId l = 0; l < static_cast<LinkId>(sc.net.link_count()); ++l)
      p.capacities.link(l) *= 2.0;
    const double doubled = SparcleAssigner().assign(p).rate;
    EXPECT_GE(doubled, base - 1e-9) << "seed " << seed;
  }
}

TEST(SparcleAssigner, ScalingAllCapacitiesScalesTheRate) {
  Rng rng(3);
  ScenarioSpec spec;
  spec.graph = GraphKind::kLinear;
  const Scenario sc = workload::make_scenario(spec, rng);
  AssignmentProblem p = sc.problem();
  const AssignmentResult base = SparcleAssigner().assign(p);
  for (NcpId j = 0; j < static_cast<NcpId>(sc.net.ncp_count()); ++j)
    p.capacities.ncp(j) *= 3.0;
  for (LinkId l = 0; l < static_cast<LinkId>(sc.net.link_count()); ++l)
    p.capacities.link(l) *= 3.0;
  const AssignmentResult scaled = SparcleAssigner().assign(p);
  EXPECT_NEAR(scaled.rate, 3.0 * base.rate, 1e-9);
}

TEST(SparcleAssigner, InfeasibleWhenSourcePinnedOffNetwork) {
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("a", ResourceVector::scalar(10));
  TaskGraph g(ResourceSchema::cpu_only());
  const CtId s = g.add_ct("s", ResourceVector::scalar(0));
  const CtId x = g.add_ct("x", ResourceVector::scalar(1));
  g.add_tt("sx", 1, s, x);
  g.finalize();
  AssignmentProblem p;
  p.net = &net;
  p.graph = &g;
  p.capacities = CapacitySnapshot(net);
  p.pinned = {{s, 5}};  // no such NCP
  EXPECT_THROW(SparcleAssigner().assign(p), std::invalid_argument);
}

TEST(SparcleAssigner, ZeroCapacityNetworkIsInfeasible) {
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("a", ResourceVector::scalar(0));
  net.add_ncp("b", ResourceVector::scalar(0));
  net.add_link("l", 0, 1, 1);
  TaskGraph g(ResourceSchema::cpu_only());
  const CtId s = g.add_ct("s", ResourceVector::scalar(0));
  const CtId x = g.add_ct("x", ResourceVector::scalar(5));
  g.add_tt("sx", 1, s, x);
  g.finalize();
  AssignmentProblem p;
  p.net = &net;
  p.graph = &g;
  p.capacities = CapacitySnapshot(net);
  p.pinned = {{s, 0}};
  const AssignmentResult r = SparcleAssigner().assign(p);
  EXPECT_FALSE(r.feasible);
}

TEST(SparcleAssigner, DynamicBeatsOrMatchesStaticRankingOnLinkBottleneck) {
  // The ablation of the paper's key idea: over link-bottleneck instances
  // the dynamic re-ranking should on average beat the frozen ranking.
  double dynamic_sum = 0, static_sum = 0;
  for (int seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    ScenarioSpec spec;
    spec.topology = TopologyKind::kStar;
    spec.graph = GraphKind::kDiamond;
    spec.bottleneck = BottleneckCase::kLink;
    const Scenario sc = workload::make_scenario(spec, rng);
    const AssignmentProblem p = sc.problem();
    SparcleAssignerOptions stat;
    stat.dynamic_ranking = false;
    dynamic_sum += SparcleAssigner().assign(p).rate;
    static_sum += SparcleAssigner(stat).assign(p).rate;
  }
  EXPECT_GE(dynamic_sum, 0.99 * static_sum);
}

TEST(SparcleAssigner, HandlesMultiSourceGraphs) {
  Rng rng(5);
  const auto gen = workload::star_network(6, rng, workload::NetRanges{});
  const auto g = workload::object_classification_app();
  AssignmentProblem p;
  p.net = &gen.net;
  p.graph = g.get();
  // Capacities in this random star (~tens) are small against the app's
  // megacycle requirements; scale them up to make the instance feasible.
  CapacitySnapshot cap(gen.net);
  for (NcpId j = 0; j < 6; ++j) cap.ncp(j) *= 1000.0;
  for (LinkId l = 0; l < 5; ++l) cap.link(l) *= 1e6;
  p.capacities = cap;
  p.pinned = {{g->sources()[0], gen.source},
              {g->sources()[1], gen.source2},
              {g->sinks()[0], gen.sink}};
  const AssignmentResult r = SparcleAssigner().assign(p);
  ASSERT_TRUE(r.feasible) << r.message;
  std::string err;
  EXPECT_TRUE(r.placement.validate(*g, gen.net, &err)) << err;
}

}  // namespace
}  // namespace sparcle
