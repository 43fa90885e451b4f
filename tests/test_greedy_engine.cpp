#include "core/greedy_engine.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <limits>
#include <string>
#include <utility>

namespace sparcle {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Fixture {
  Network net{ResourceSchema::cpu_only()};
  TaskGraph graph{ResourceSchema::cpu_only()};
  AssignmentProblem problem;

  Fixture() {
    // Two field nodes and a big one, in a line: 0 -(10)- 1 -(100)- 2.
    net.add_ncp("n0", ResourceVector::scalar(10));
    net.add_ncp("n1", ResourceVector::scalar(20));
    net.add_ncp("n2", ResourceVector::scalar(100));
    net.add_link("l01", 0, 1, 10);
    net.add_link("l12", 1, 2, 100);

    const CtId s = graph.add_ct("s", ResourceVector::scalar(0));
    const CtId a = graph.add_ct("a", ResourceVector::scalar(5));
    const CtId t = graph.add_ct("t", ResourceVector::scalar(0));
    graph.add_tt("sa", 2, s, a);
    graph.add_tt("at", 1, a, t);
    graph.finalize();

    problem.net = &net;
    problem.graph = &graph;
    problem.capacities = CapacitySnapshot(net);
    problem.pinned = {{s, 0}, {t, 0}};
  }
};

TEST(GreedyEngine, CommitPinsPlacesPinnedCts) {
  Fixture f;
  GreedyEngine e(f.problem);
  e.commit_pins();
  EXPECT_TRUE(e.placed(0));
  EXPECT_TRUE(e.placed(2));
  EXPECT_FALSE(e.placed(1));
  EXPECT_EQ(e.placed_count(), 2u);
  EXPECT_EQ(e.host(0), 0);
}

TEST(GreedyEngine, GammaNodeTermOnly) {
  Fixture f;
  GreedyEngine e(f.problem);
  // Nothing placed: γ(a, j) is the pure node term C_j / a = C_j / 5.
  EXPECT_DOUBLE_EQ(e.gamma(1, 0), 10.0 / 5.0);
  EXPECT_DOUBLE_EQ(e.gamma(1, 2), 100.0 / 5.0);
}

TEST(GreedyEngine, GammaIncludesLinkTermsTowardsPlacedCts) {
  Fixture f;
  GreedyEngine e(f.problem);
  e.commit_pins();  // s and t on n0
  // Placing a on n2: node term 100/5 = 20.  Towards s (on n0) the probe TT
  // is "sa" (2 bits): width min(100/2, 10/2) = 5; towards t it is "at"
  // (1 bit): width min(100/1, 10/1) = 10.  γ = min(20, 5, 10) = 5.
  EXPECT_DOUBLE_EQ(e.gamma(1, 2), 5.0);
  // Placing a on n0 co-locates: pure node term 10/5 = 2.
  EXPECT_DOUBLE_EQ(e.gamma(1, 0), 2.0);
}

TEST(GreedyEngine, GammaCountsExistingNodeLoad) {
  Fixture f;
  GreedyEngine e(f.problem);
  e.commit(1, 1);  // a (5 units) on n1
  // A second CT of the same size on n1 would see 20 / (5 + 5)... use γ of
  // CT a again is illegal (placed); instead check through a fresh engine.
  GreedyEngine e2(f.problem);
  e2.commit(0, 1);  // put the source somewhere busy? source has 0 req.
  // Node term for a on n1 with zero existing load: 20/5.
  EXPECT_DOUBLE_EQ(e2.gamma(1, 1), 4.0);
}

TEST(GreedyEngine, BestHostIsArgmaxGamma) {
  Fixture f;
  GreedyEngine e(f.problem);
  double g = 0;
  const NcpId j = e.best_host(1, &g);
  EXPECT_EQ(j, 2);  // biggest node before any pins
  EXPECT_DOUBLE_EQ(g, 20.0);
}

TEST(GreedyEngine, CommitRoutesTtsToPlacedNeighbours) {
  Fixture f;
  GreedyEngine e(f.problem);
  e.commit_pins();
  e.commit(1, 2);  // a on n2; both TTs must now be routed n0 <-> n2
  AssignmentResult r = std::move(e).finish();
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.placement.tt_route(0).size(), 2u);
  EXPECT_EQ(r.placement.tt_route(1).size(), 2u);
}

TEST(GreedyEngine, CoLocatedTtGetsEmptyRoute) {
  Fixture f;
  GreedyEngine e(f.problem);
  e.commit_pins();
  e.commit(1, 0);
  AssignmentResult r = std::move(e).finish();
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.placement.tt_route(0).empty());
  EXPECT_TRUE(r.placement.tt_route(1).empty());
  EXPECT_DOUBLE_EQ(r.rate, 2.0);  // n0 cpu: 10/5
}

TEST(GreedyEngine, LoadBookkeepingMatchesCommits) {
  Fixture f;
  GreedyEngine e(f.problem);
  e.commit_pins();
  e.commit(1, 2);
  EXPECT_DOUBLE_EQ(e.load().ncp_load(2)[0], 5.0);
  // sa (2 bits) and at (1 bit) both cross l01 and l12.
  EXPECT_DOUBLE_EQ(e.load().link_load(0), 3.0);
  EXPECT_DOUBLE_EQ(e.load().link_load(1), 3.0);
}

TEST(GreedyEngine, DoubleCommitThrows) {
  Fixture f;
  GreedyEngine e(f.problem);
  e.commit(1, 0);
  EXPECT_THROW(e.commit(1, 1), std::logic_error);
}

TEST(GreedyEngine, CommitToUnknownNcpThrows) {
  Fixture f;
  GreedyEngine e(f.problem);
  EXPECT_THROW(e.commit(1, 9), std::invalid_argument);
}

TEST(GreedyEngine, GammaZeroWhenDisconnected) {
  // Two islands: the pinned source sits on an unreachable node.
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("a", ResourceVector::scalar(10));
  net.add_ncp("b", ResourceVector::scalar(10));
  TaskGraph g(ResourceSchema::cpu_only());
  const CtId s = g.add_ct("s", ResourceVector::scalar(0));
  const CtId x = g.add_ct("x", ResourceVector::scalar(1));
  g.add_tt("sx", 1, s, x);
  g.finalize();
  AssignmentProblem p;
  p.net = &net;
  p.graph = &g;
  p.capacities = CapacitySnapshot(net);
  p.pinned = {{s, 0}};
  GreedyEngine e(p);
  e.commit_pins();
  EXPECT_DOUBLE_EQ(e.gamma(x, 1), 0.0);  // no link between the islands
  EXPECT_GT(e.gamma(x, 0), 0.0);         // co-location still works
}

/// Three middle CTs between one pinned source and sink, on the line
/// 0 -(10)- 1 -(100)- 2: s -> a|b|c -> t, each TT with its own size.
struct ThreeBranches {
  Network net{ResourceSchema::cpu_only()};
  TaskGraph graph{ResourceSchema::cpu_only()};
  AssignmentProblem problem;

  ThreeBranches() {
    net.add_ncp("n0", ResourceVector::scalar(10));
    net.add_ncp("n1", ResourceVector::scalar(20));
    net.add_ncp("n2", ResourceVector::scalar(100));
    net.add_link("l01", 0, 1, 10);
    net.add_link("l12", 1, 2, 100);
    const CtId s = graph.add_ct("s", ResourceVector::scalar(0));
    const CtId t = graph.add_ct("t", ResourceVector::scalar(0));
    for (int m = 0; m < 3; ++m) {
      const std::string name(1, static_cast<char>('a' + m));
      const CtId c = graph.add_ct(name, ResourceVector::scalar(1 + m));
      graph.add_tt("s" + name, 1 + m, s, c);
      graph.add_tt(name + "t", 2 + m, c, t);
    }
    graph.finalize();
    problem.net = &net;
    problem.graph = &graph;
    problem.capacities = CapacitySnapshot(net);
    problem.pinned = {{s, 0}, {t, 0}};
  }
};

/// γ(i, j) of `e` agrees bit for bit, for every unplaced CT and every NCP,
/// with a fresh engine on `problem` that commits the pins and `commits`.
void expect_fresh_gammas(
    const AssignmentProblem& problem, const GreedyEngine& e,
    std::initializer_list<std::pair<CtId, NcpId>> commits) {
  GreedyEngine fresh(problem);
  fresh.commit_pins();
  for (const auto& [i, j] : commits) fresh.commit(i, j);
  for (CtId i = 0; i < static_cast<CtId>(e.graph().ct_count()); ++i) {
    ASSERT_EQ(e.placed(i), fresh.placed(i)) << "ct " << i;
    if (e.placed(i)) continue;
    for (NcpId j = 0; j < static_cast<NcpId>(e.net().ncp_count()); ++j)
      EXPECT_EQ(e.gamma(i, j), fresh.gamma(i, j))
          << "ct " << i << " ncp " << j;
  }
}

TEST(GreedyEngine, TreesOutliveCommitsThatRouteNoLink) {
  ThreeBranches f;
  constexpr CtId kA = 2, kB = 3, kC = 4;
  GreedyEngine e(f.problem);
  e.commit_pins();
  e.warm_probe_cache();
  for (CtId i : {kA, kB, kC}) e.best_host(i);
  const std::uint64_t probed = e.stats().widest_path_calls;
  ASSERT_GT(probed, 0u);

  // a beside s and t: both its TTs stay on n0, no link load moves.
  e.commit(kA, 0);
  EXPECT_EQ(e.load().link_load(0), 0.0);
  EXPECT_EQ(e.load().link_load(1), 0.0);
  for (CtId i : {kB, kC}) e.best_host(i);
  EXPECT_EQ(e.stats().widest_path_calls, probed);
  expect_fresh_gammas(f.problem, e, {{kA, 0}});

  // b on n2: its two TTs load l01 and l12, so c's trees are rebuilt.
  e.commit(kB, 2);
  const std::uint64_t routed = e.stats().widest_path_calls;
  EXPECT_EQ(routed, probed + 2);  // the two routes
  e.best_host(kC);
  EXPECT_EQ(e.stats().widest_path_calls, routed + 2);  // c's two trees
  expect_fresh_gammas(f.problem, e, {{kA, 0}, {kB, 2}});
}

TEST(GreedyEngine, CopyGoesOnAlone) {
  ThreeBranches f;
  GreedyEngine e(f.problem);
  e.commit_pins();
  e.warm_probe_cache();
  e.best_host(2);
  GreedyEngine copy(e);
  EXPECT_EQ(copy.stats().widest_path_calls, 0u);
  EXPECT_EQ(copy.stats().gamma_evals, 0u);
  copy.best_host(2);  // the copied trees are current: no Dijkstra
  EXPECT_EQ(copy.stats().widest_path_calls, 0u);

  // Commits on the copy leave the original as it was.
  copy.commit(2, 2);
  EXPECT_TRUE(copy.placed(2));
  EXPECT_FALSE(e.placed(2));
  EXPECT_EQ(e.load().link_load(0), 0.0);
  expect_fresh_gammas(f.problem, e, {});
  expect_fresh_gammas(f.problem, copy, {{2, 2}});
}

TEST(GreedyEngine, ZeroRequirementCtHasInfiniteNodeTerm) {
  Fixture f;
  GreedyEngine e(f.problem);
  EXPECT_EQ(e.gamma(0, 1), kInf);  // source CT, nothing placed yet
}

}  // namespace
}  // namespace sparcle
