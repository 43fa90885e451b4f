/// \file test_assign_equivalence.cpp
/// SparcleAssigner reads γ's link terms off widest-width trees; its
/// placements must be bit-identical to the point-to-point, floor-pruned γ
/// it replaced (tests/reference_assigner.hpp) on every scenario of this
/// grid.  test_assign_reference.cpp runs the same oracle on larger and
/// hostile sites.  This is the property test backing docs/perf.md.

#include <gtest/gtest.h>

#include "reference_assigner.hpp"
#include "testutil.hpp"

#include <vector>

#include "core/sparcle_assigner.hpp"
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

}  // namespace
}  // namespace sparcle
