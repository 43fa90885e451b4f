/// \file test_assign_equivalence.cpp
/// SparcleAssigner reads γ's link terms off widest-width trees; its
/// placements must be bit-identical to the point-to-point, floor-pruned γ
/// it replaced (tests/reference_assigner.hpp) on every scenario of this
/// grid.  test_assign_reference.cpp runs the same oracle on larger and
/// hostile sites.  The default best-of-both ranking runs its two passes on
/// one engine until their picks differ; it must equal the better of the
/// two passes run alone.  This is the property test backing docs/perf.md.

#include <gtest/gtest.h>

#include "reference_assigner.hpp"
#include "testutil.hpp"

#include <memory>
#include <string>
#include <vector>

#include "core/sparcle_assigner.hpp"
#include "policy/policy.hpp"
#include "workload/arrivals.hpp"
#include "workload/scenarios.hpp"

namespace sparcle {
namespace {

using workload::BottleneckCase;
using workload::GraphKind;
using workload::Scenario;
using workload::ScenarioSpec;
using workload::TopologyKind;

class AssignEquivalence : public ::testing::TestWithParam<int> {};

// The name is kept from when a γ memo and a parallel round ran on the fast
// side, so the test's ID stays stable across history.
TEST_P(AssignEquivalence, MemoizedParallelMatchesFreshSerialReference) {
  const int seed = GetParam();
  const TopologyKind topologies[] = {TopologyKind::kStar, TopologyKind::kFull,
                                     TopologyKind::kLinear};
  const GraphKind graphs[] = {GraphKind::kLinear, GraphKind::kDiamond};
  const BottleneckCase cases[] = {BottleneckCase::kNcp, BottleneckCase::kLink,
                                  BottleneckCase::kBalanced};
  const SparcleAssignerOptions::Ranking rankings[] = {
      SparcleAssignerOptions::Ranking::kMostConstrainedFirst,
      SparcleAssignerOptions::Ranking::kLeastConstrainedFirst,
      SparcleAssignerOptions::Ranking::kBestOfBoth,
  };

  for (TopologyKind topo : topologies)
    for (GraphKind gk : graphs)
      for (BottleneckCase bc : cases) {
        Rng rng(testutil::test_seed() + seed * 7919 + static_cast<int>(topo) * 31 +
                static_cast<int>(gk) * 7 + static_cast<int>(bc));
        ScenarioSpec spec;
        spec.topology = topo;
        spec.graph = gk;
        spec.bottleneck = bc;
        spec.ncps = 5 + static_cast<std::size_t>(seed % 3);
        spec.middle_cts = 3 + static_cast<std::size_t>(seed % 2);
        const Scenario sc = workload::make_scenario(spec, rng);
        const AssignmentProblem p = sc.problem();

        for (auto ranking : rankings) {
          SparcleAssignerOptions opts;
          opts.ranking = ranking;
          const std::string label =
              "seed=" + std::to_string(seed) +
              " topo=" + workload::to_string(topo) +
              " graph=" + workload::to_string(gk) +
              " case=" + workload::to_string(bc) +
              " ranking=" + std::to_string(static_cast<int>(ranking));
          testutil::expect_same_assignment(
              SparcleAssigner(opts).assign(p),
              testutil::reference_assign(p, opts, label), *sc.graph,
              label);
        }
      }
}

// Static-ranking ablation path must be unchanged too.
TEST_P(AssignEquivalence, StaticRankingMatchesReference) {
  Rng rng(testutil::test_seed() + GetParam() + 5000);
  ScenarioSpec spec;
  spec.topology = TopologyKind::kFull;
  spec.graph = GraphKind::kDiamond;
  spec.bottleneck = BottleneckCase::kBalanced;
  spec.ncps = 6;
  const Scenario sc = workload::make_scenario(spec, rng);
  const AssignmentProblem p = sc.problem();

  SparcleAssignerOptions opts;
  opts.ranking = SparcleAssignerOptions::Ranking::kMostConstrainedFirst;
  opts.dynamic_ranking = false;
  testutil::expect_same_assignment(
      SparcleAssigner(opts).assign(p),
      testutil::reference_assign(p, opts, "static-ranking"), *sc.graph,
      "static-ranking");
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssignEquivalence, ::testing::Range(1, 13));

// kBestOfBoth shares one engine between its argmin and argmax passes while
// they pick the same CT and host, then copies it.  Its result must be the
// better of the two passes run as separate assigns (the argmin pass's on a
// tie), bit for bit, on pinned arrivals on a part-loaded soak site of 64
// and 128 NCPs, under every registered policy and the static ablation.
TEST(BestOfBoth, EqualsTheBetterOfTwoSeparatePasses) {
  using Ranking = SparcleAssignerOptions::Ranking;
  std::size_t problems = 0, argmax_wins = 0, passes_differ = 0;
  for (const std::size_t regions : {1, 2}) {
    const std::uint64_t seed = testutil::test_seed() + 20261016 + regions;
    Rng rng(seed);
    const Network net = workload::soak_site(regions, 64, rng);
    workload::ArrivalSpec spec;
    spec.arrivals = 16;
    spec.locality = 0.9;
    workload::ArrivalGenerator gen(net, spec, seed);
    workload::Arrival arrival;
    for (int app = 0; gen.next(arrival); ++app) {
      AssignmentProblem p;
      p.net = &net;
      p.graph = arrival.app.graph.get();
      p.capacities = CapacitySnapshot(net);
      p.pinned = arrival.app.pinned;
      // Residuals of a site in use: each element keeps part of its
      // capacity, so link and node terms both decide.
      for (NcpId j = 0; j < static_cast<NcpId>(net.ncp_count()); ++j)
        p.capacities.ncp(j) *= rng.uniform(0.1, 1.0);
      for (LinkId l = 0; l < static_cast<LinkId>(net.link_count()); ++l)
        p.capacities.link(l) *= rng.uniform(0.02, 1.0);

      for (const std::string name :
           {"default", "sjf", "deadline", "energy", "static"}) {
        const bool ablation = name == "static";
        const std::unique_ptr<policy::SchedulingPolicy> pol =
            policy::make_policy(ablation ? "default" : name);
        SparcleAssignerOptions opts;
        opts.policy = pol.get();
        opts.dynamic_ranking = !ablation;
        SparcleAssignerOptions argmin = opts, argmax = opts;
        argmin.ranking = Ranking::kMostConstrainedFirst;
        argmax.ranking = Ranking::kLeastConstrainedFirst;
        const AssignmentResult ra = SparcleAssigner(argmin).assign(p);
        const AssignmentResult rb = SparcleAssigner(argmax).assign(p);
        const bool take_b =
            !ra.feasible || (rb.feasible && rb.rate > ra.rate);
        const std::string label =
            "regions=" + std::to_string(regions) +
            " app=" + std::to_string(app) + " " + name +
            testutil::seed_message(seed);
        testutil::expect_same_assignment(SparcleAssigner(opts).assign(p),
                                         take_b ? rb : ra, *p.graph, label);
        ++problems;
        argmax_wins += take_b && ra.feasible;
        bool differ = ra.feasible != rb.feasible;
        for (CtId i = 0; i < static_cast<CtId>(p.graph->ct_count()); ++i)
          differ = differ || ra.placement.ct_host(i) != rb.placement.ct_host(i);
        passes_differ += differ;
      }
    }
  }
  // The grid reaches both outcomes: passes that part, and argmax wins.
  EXPECT_EQ(problems, 2u * 16u * 5u);
  EXPECT_GT(passes_differ, 0u);
  EXPECT_GT(argmax_wins, 0u);
}

}  // namespace
}  // namespace sparcle
