#include "core/fairness.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

namespace sparcle {
namespace {

/// Two apps, one shared link of capacity C, unit loads: the weighted-PF
/// closed form is x_i = P_i / ΣP * C.
TEST(Fairness, SingleLinkClosedForm) {
  PfProblem p;
  p.capacity = {30.0};
  p.columns.resize(2);
  p.columns[0].entries = {{0, 1.0}};
  p.columns[1].entries = {{0, 1.0}};
  p.var_app = {0, 1};
  p.app_priority = {2.0, 1.0};
  const PfSolution s = solve_weighted_pf(p);
  ASSERT_TRUE(s.converged);
  EXPECT_NEAR(s.app_rate[0], 20.0, 1e-3);
  EXPECT_NEAR(s.app_rate[1], 10.0, 1e-3);
  EXPECT_LE(s.max_violation, 1e-9);
}

TEST(Fairness, SingleLinkHeterogeneousLoads) {
  // Loads R_1 = 2, R_2 = 1 on one capacity-12 element with equal
  // priorities: KKT gives x_i = P_i / (λ R_i), λ from 2x1 + x2 = 12
  // -> 1/λ + 1/λ = 12 -> λ = 1/6: x1 = 3, x2 = 6.
  PfProblem p;
  p.capacity = {12.0};
  p.columns.resize(2);
  p.columns[0].entries = {{0, 2.0}};
  p.columns[1].entries = {{0, 1.0}};
  p.var_app = {0, 1};
  p.app_priority = {1.0, 1.0};
  const PfSolution s = solve_weighted_pf(p);
  ASSERT_TRUE(s.converged);
  EXPECT_NEAR(s.app_rate[0], 3.0, 1e-3);
  EXPECT_NEAR(s.app_rate[1], 6.0, 1e-3);
}

TEST(Fairness, IndependentAppsSaturateTheirOwnConstraints) {
  PfProblem p;
  p.capacity = {10.0, 40.0};
  p.columns.resize(2);
  p.columns[0].entries = {{0, 1.0}};
  p.columns[1].entries = {{1, 2.0}};
  p.var_app = {0, 1};
  p.app_priority = {1.0, 1.0};
  const PfSolution s = solve_weighted_pf(p);
  ASSERT_TRUE(s.converged);
  EXPECT_NEAR(s.app_rate[0], 10.0, 1e-3);
  EXPECT_NEAR(s.app_rate[1], 20.0, 1e-3);
}

TEST(Fairness, KktStationarityHolds) {
  // Random-ish 3-app, 4-constraint problem: check P_i / x_i == Σ λ_e R_ei
  // for every variable at the optimum.
  PfProblem p;
  p.capacity = {20.0, 15.0, 25.0, 30.0};
  p.columns.resize(3);
  p.columns[0].entries = {{0, 1.0}, {1, 2.0}};
  p.columns[1].entries = {{1, 1.0}, {2, 3.0}};
  p.columns[2].entries = {{0, 2.0}, {3, 1.0}};
  p.var_app = {0, 1, 2};
  p.app_priority = {1.0, 2.0, 3.0};
  const PfSolution s = solve_weighted_pf(p);
  ASSERT_TRUE(s.converged);
  for (std::size_t v = 0; v < 3; ++v) {
    double price = 0;
    for (const auto& [row, coeff] : p.columns[v].entries)
      price += s.dual[row] * coeff;
    const double marginal = p.app_priority[v] / s.app_rate[v];
    EXPECT_NEAR(marginal, price, 0.02 * marginal)
        << "stationarity violated for variable " << v;
  }
}

TEST(Fairness, UtilityMatchesPfUtilityHelper) {
  PfProblem p;
  p.capacity = {30.0};
  p.columns.resize(2);
  p.columns[0].entries = {{0, 1.0}};
  p.columns[1].entries = {{0, 1.0}};
  p.var_app = {0, 1};
  p.app_priority = {2.0, 1.0};
  const PfSolution s = solve_weighted_pf(p);
  EXPECT_NEAR(s.utility, pf_utility(p, s.path_rate), 1e-9);
  EXPECT_NEAR(s.utility, 2.0 * std::log(s.app_rate[0]) +
                             std::log(s.app_rate[1]),
              1e-9);
}

TEST(Fairness, MultipathAggregatesAcrossPaths) {
  // One app with two disjoint paths (capacities 5 and 7) and another app
  // sharing nothing: app 0 should get 12 total.
  PfProblem p;
  p.capacity = {5.0, 7.0, 9.0};
  p.columns.resize(3);
  p.columns[0].entries = {{0, 1.0}};
  p.columns[1].entries = {{1, 1.0}};
  p.columns[2].entries = {{2, 1.0}};
  p.var_app = {0, 0, 1};
  p.app_priority = {1.0, 1.0};
  const PfSolution s = solve_weighted_pf(p);
  ASSERT_TRUE(s.converged);
  EXPECT_NEAR(s.app_rate[0], 12.0, 1e-2);
  EXPECT_NEAR(s.app_rate[1], 9.0, 1e-2);
}

TEST(Fairness, MultipathSharedBottleneckSplitsArbitrarilyButSumsRight) {
  // Two paths of one app over the same link: only the sum is determined.
  PfProblem p;
  p.capacity = {10.0};
  p.columns.resize(2);
  p.columns[0].entries = {{0, 1.0}};
  p.columns[1].entries = {{0, 1.0}};
  p.var_app = {0, 0};
  p.app_priority = {1.0};
  const PfSolution s = solve_weighted_pf(p);
  ASSERT_TRUE(s.converged);
  EXPECT_NEAR(s.app_rate[0], 10.0, 1e-3);
  EXPECT_GT(s.path_rate[0], 0.0);
  EXPECT_GT(s.path_rate[1], 0.0);
}

TEST(Fairness, PriorityScalesAllocationOnSharedBottleneck) {
  for (double ratio : {1.0, 2.0, 5.0, 10.0}) {
    PfProblem p;
    p.capacity = {100.0};
    p.columns.resize(2);
    p.columns[0].entries = {{0, 1.0}};
    p.columns[1].entries = {{0, 1.0}};
    p.var_app = {0, 1};
    p.app_priority = {ratio, 1.0};
    const PfSolution s = solve_weighted_pf(p);
    ASSERT_TRUE(s.converged);
    EXPECT_NEAR(s.app_rate[0] / s.app_rate[1], ratio, 0.02 * ratio)
        << "priority ratio " << ratio;
  }
}

TEST(Fairness, LargeCapacityUnitsAreHandled) {
  // Bits-per-second scale (1e8) with megacycle loads: the internal scaling
  // must keep the solve stable.
  PfProblem p;
  p.capacity = {1e8, 15200.0};
  p.columns.resize(2);
  p.columns[0].entries = {{0, 2.48e7}, {1, 9880.0}};
  p.columns[1].entries = {{0, 1.456e6}, {1, 12800.0}};
  p.var_app = {0, 1};
  p.app_priority = {1.0, 1.0};
  const PfSolution s = solve_weighted_pf(p);
  ASSERT_TRUE(s.converged);
  EXPECT_LE(s.max_violation, 1e-3);
  EXPECT_GT(s.app_rate[0], 0.0);
  EXPECT_GT(s.app_rate[1], 0.0);
}

TEST(Fairness, RejectsMalformedProblems) {
  PfProblem empty;
  EXPECT_THROW(solve_weighted_pf(empty), std::invalid_argument);

  PfProblem no_vars;
  no_vars.capacity = {1.0};
  no_vars.app_priority = {1.0};
  EXPECT_THROW(solve_weighted_pf(no_vars), std::invalid_argument);

  PfProblem bad_priority;
  bad_priority.capacity = {1.0};
  bad_priority.columns.resize(1);
  bad_priority.columns[0].entries = {{0, 1.0}};
  bad_priority.var_app = {0};
  bad_priority.app_priority = {0.0};
  EXPECT_THROW(solve_weighted_pf(bad_priority), std::invalid_argument);

  PfProblem zero_cap;
  zero_cap.capacity = {0.0};
  zero_cap.columns.resize(1);
  zero_cap.columns[0].entries = {{0, 1.0}};
  zero_cap.var_app = {0};
  zero_cap.app_priority = {1.0};
  EXPECT_THROW(solve_weighted_pf(zero_cap), std::invalid_argument);

  PfProblem row_out_of_range;
  row_out_of_range.capacity = {1.0};
  row_out_of_range.columns.resize(1);
  row_out_of_range.columns[0].entries = {{0, 1.0}, {1, 1.0}};
  row_out_of_range.var_app = {0};
  row_out_of_range.app_priority = {1.0};
  EXPECT_THROW(solve_weighted_pf(row_out_of_range), std::invalid_argument);

  PfProblem app_out_of_range;
  app_out_of_range.capacity = {1.0};
  app_out_of_range.columns.resize(2);
  app_out_of_range.columns[0].entries = {{0, 1.0}};
  app_out_of_range.columns[1].entries = {{0, 1.0}};
  app_out_of_range.var_app = {0, 1};
  app_out_of_range.app_priority = {1.0};
  EXPECT_THROW(solve_weighted_pf(app_out_of_range), std::invalid_argument);

  // Non-finite input: two apps sharing one row, whose answer is (10, 20).
  PfProblem two_apps;
  two_apps.capacity = {30.0};
  two_apps.columns.resize(2);
  two_apps.columns[0].entries = {{0, 1.0}};
  two_apps.columns[1].entries = {{0, 1.0}};
  two_apps.var_app = {0, 1};
  two_apps.app_priority = {1.0, 2.0};
  const PfSolution sane = solve_weighted_pf(two_apps);
  ASSERT_TRUE(sane.converged);
  EXPECT_NEAR(sane.app_rate[0], 10.0, 1e-6);
  EXPECT_NEAR(sane.app_rate[1], 20.0, 1e-6);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double capacity : {nan, inf}) {
    PfProblem bad = two_apps;
    bad.capacity[0] = capacity;
    EXPECT_THROW(solve_weighted_pf(bad), std::invalid_argument) << capacity;
  }
  for (double priority : {nan, inf}) {
    PfProblem bad = two_apps;
    bad.app_priority[0] = priority;
    EXPECT_THROW(solve_weighted_pf(bad), std::invalid_argument) << priority;
  }
  for (double coeff : {nan, inf, -inf}) {
    PfProblem bad = two_apps;
    bad.columns[1].entries[0].second = coeff;
    EXPECT_THROW(solve_weighted_pf(bad), std::invalid_argument) << coeff;
  }
  // Every column entry is >= 0 and at least one is > 0: problem (4) is
  // unbounded in a variable that loads no row.
  using Entries = std::vector<std::pair<std::size_t, double>>;
  for (const Entries& entries :
       {Entries{}, Entries{{0, 0.0}}, Entries{{0, 0.0}, {0, 0.0}},
        Entries{{0, -1.0}}, Entries{{0, 1.0}, {0, -1e-9}}}) {
    PfProblem bad = two_apps;
    bad.columns[1].entries = entries;
    EXPECT_THROW(solve_weighted_pf(bad), std::invalid_argument)
        << entries.size() << " entries";
  }
  // A zero entry beside a positive one is fine.
  PfProblem zero_entry = two_apps;
  zero_entry.columns[1].entries = {{0, 1.0}, {0, 0.0}};
  const PfSolution same = solve_weighted_pf(zero_entry);
  ASSERT_TRUE(same.converged);
  EXPECT_NEAR(same.app_rate[1], 20.0, 1e-6);
  // An unloaded row's capacity is never read.
  PfProblem unloaded_nan = two_apps;
  unloaded_nan.capacity.push_back(nan);
  EXPECT_NO_THROW(solve_weighted_pf(unloaded_nan));
}

TEST(Fairness, HugePriorityStillGetsFiniteRatesAtCapacity) {
  // A valid but extreme priority: the duals reach ~1e300 / C, where the
  // gap rule cannot be met in floating point.  Whatever the solver
  // reports, its rates must be finite and fill the row.
  PfProblem p;
  p.capacity = {10.0};
  p.columns.resize(1);
  p.columns[0].entries = {{0, 5.0}};
  p.var_app = {0};
  p.app_priority = {1e300};
  const PfSolution s = solve_weighted_pf(p);
  ASSERT_TRUE(std::isfinite(s.path_rate[0]));
  EXPECT_NEAR(s.app_rate[0], 2.0, 1e-6);
  EXPECT_LE(s.max_violation, 1e-6);
  EXPECT_TRUE(std::isfinite(s.utility));
}

TEST(Fairness, TinyPrioritiesDoNotStopEarly) {
  // The duals scale with the priorities, so a gap rule in absolute terms
  // alone would accept the starting point of a problem whose priorities
  // are tiny.
  for (double priority : {1e-6, 1e-12, 1e-300}) {
    PfProblem p;
    p.capacity = {10.0};
    p.columns.resize(1);
    p.columns[0].entries = {{0, 5.0}};
    p.var_app = {0};
    p.app_priority = {priority};
    const PfSolution s = solve_weighted_pf(p);
    EXPECT_TRUE(s.converged) << priority;
    EXPECT_NEAR(s.app_rate[0], 2.0, 1e-6) << priority;
  }
}

TEST(Fairness, FactorEntriesCountTheSparseFactor) {
  // Apps on private rows: a diagonal Hessian, one entry per variable.
  PfProblem apart;
  apart.capacity = {10.0, 20.0, 30.0};
  for (std::size_t a = 0; a < 3; ++a) {
    apart.columns.push_back({{{a, 1.0}}});
    apart.var_app.push_back(a);
    apart.app_priority.push_back(1.0);
  }
  EXPECT_EQ(solve_weighted_pf(apart).factor_entries, 3u);

  // One shared row makes the Hessian dense: nv(nv+1)/2 entries.
  PfProblem shared = apart;
  for (auto& col : shared.columns) col.entries.emplace_back(2, 1.0);
  EXPECT_EQ(solve_weighted_pf(shared).factor_entries, 6u);

  // A chain 0-1-2 eliminates an end first: one sparse column of two
  // entries, then the 2-clique's three.
  PfProblem chain = apart;
  chain.columns[1].entries = {{0, 1.0}, {2, 1.0}};
  chain.columns[2].entries = {{2, 1.0}};
  EXPECT_EQ(solve_weighted_pf(chain).factor_entries, 5u);
}

TEST(Fairness, PfUtilityIsMinusInfinityForZeroRateApp) {
  PfProblem p;
  p.capacity = {1.0};
  p.columns.resize(1);
  p.columns[0].entries = {{0, 1.0}};
  p.var_app = {0};
  p.app_priority = {1.0};
  EXPECT_EQ(pf_utility(p, {0.0}), -std::numeric_limits<double>::infinity());
}

TEST(Fairness, SolutionIsOptimalAgainstPerturbations) {
  // Local optimality: random feasible perturbations never improve utility.
  PfProblem p;
  p.capacity = {20.0, 15.0};
  p.columns.resize(2);
  p.columns[0].entries = {{0, 1.0}, {1, 1.0}};
  p.columns[1].entries = {{1, 1.0}};
  p.var_app = {0, 1};
  p.app_priority = {1.0, 3.0};
  const PfSolution s = solve_weighted_pf(p);
  ASSERT_TRUE(s.converged);
  const double u = pf_utility(p, s.path_rate);
  for (double d1 : {-0.5, -0.1, 0.1}) {
    for (double d2 : {-0.5, -0.1, 0.1}) {
      std::vector<double> x = s.path_rate;
      x[0] += d1;
      x[1] += d2;
      if (x[0] <= 0 || x[1] <= 0) continue;
      if (x[0] > 20.0 || x[0] + x[1] > 15.0) continue;  // infeasible
      EXPECT_LE(pf_utility(p, x), u + 1e-6);
    }
  }
}

}  // namespace
}  // namespace sparcle
