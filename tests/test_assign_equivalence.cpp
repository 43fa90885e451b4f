/// \file test_assign_equivalence.cpp
/// The perf layers of SparcleAssigner (floor-pruned evaluation, parallel
/// candidate rounds) must be *invisible*: the produced placement has to be
/// bit-identical to the serial reference (eval_threads=1) on every
/// scenario.  This is the property test backing docs/perf.md.

#include <gtest/gtest.h>

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

void expect_identical(const AssignmentResult& fast,
                      const AssignmentResult& ref, const TaskGraph& graph,
                      const std::string& label) {
  ASSERT_EQ(fast.feasible, ref.feasible) << label;
  EXPECT_EQ(fast.rate, ref.rate) << label;  // bit-identical, not just near
  for (CtId i = 0; i < static_cast<CtId>(graph.ct_count()); ++i)
    EXPECT_EQ(fast.placement.ct_host(i), ref.placement.ct_host(i))
        << label << " ct " << i;
  for (TtId k = 0; k < static_cast<TtId>(graph.tt_count()); ++k) {
    ASSERT_EQ(fast.placement.tt_placed(k), ref.placement.tt_placed(k))
        << label << " tt " << k;
    if (fast.placement.tt_placed(k)) {
      EXPECT_EQ(fast.placement.tt_route(k), ref.placement.tt_route(k))
          << label << " tt " << k;
    }
  }
}

class AssignEquivalence : public ::testing::TestWithParam<int> {};

// The name is kept from when a γ memo also ran on the fast side, so the
// test's ID stays stable across history.
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
          SparcleAssignerOptions fast_opts;
          fast_opts.ranking = ranking;
          fast_opts.eval_threads = 3;  // force the pool even on 1 core

          SparcleAssignerOptions ref_opts = fast_opts;
          ref_opts.eval_threads = 1;

          const AssignmentResult fast =
              SparcleAssigner(fast_opts).assign(p);
          const AssignmentResult ref = SparcleAssigner(ref_opts).assign(p);

          const std::string label =
              "seed=" + std::to_string(seed) +
              " topo=" + workload::to_string(topo) +
              " graph=" + workload::to_string(gk) +
              " case=" + workload::to_string(bc) +
              " ranking=" + std::to_string(static_cast<int>(ranking));
          expect_identical(fast, ref, *sc.graph, label);
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

  SparcleAssignerOptions fast_opts;
  fast_opts.ranking = SparcleAssignerOptions::Ranking::kMostConstrainedFirst;
  fast_opts.dynamic_ranking = false;
  fast_opts.eval_threads = 2;
  SparcleAssignerOptions ref_opts = fast_opts;
  ref_opts.eval_threads = 1;

  const AssignmentResult fast = SparcleAssigner(fast_opts).assign(p);
  const AssignmentResult ref = SparcleAssigner(ref_opts).assign(p);
  expect_identical(fast, ref, *sc.graph, "static-ranking");
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssignEquivalence, ::testing::Range(1, 13));

}  // namespace
}  // namespace sparcle
