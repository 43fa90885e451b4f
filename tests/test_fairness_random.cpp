/// \file test_fairness_random.cpp
/// Randomized property sweep for the proportional-fairness solver: on
/// random feasible problems the returned point must satisfy the KKT
/// conditions of problem (4) and resist random feasible perturbations.

#include <gtest/gtest.h>

#include <vector>

#include "core/fairness.hpp"
#include "random_pf_problem.hpp"
#include "workload/rng.hpp"
#include "testutil.hpp"

namespace sparcle {
namespace {

using testutil::random_problem;

class FairnessRandom : public ::testing::TestWithParam<int> {};

TEST_P(FairnessRandom, KktConditionsHold) {
  Rng rng(testutil::test_seed() + GetParam());
  const PfProblem p = random_problem(rng, 4, 6);
  const PfSolution s = solve_weighted_pf(p);
  ASSERT_TRUE(s.converged);
  ASSERT_LE(s.max_violation, 1e-6);

  // Stationarity: for every path variable with positive rate,
  //   P_a / x_a  ==  Σ_rows λ_row R_row,v   (within solver tolerance);
  // for (near-)zero variables the price may exceed the marginal utility.
  for (std::size_t v = 0; v < p.var_count(); ++v) {
    const std::size_t a = p.var_app[v];
    ASSERT_GT(s.app_rate[a], 0.0);
    double price = 0;
    for (const auto& [row, coeff] : p.columns[v].entries)
      price += s.dual[row] * coeff;
    const double marginal = p.app_priority[a] / s.app_rate[a];
    const double scale = std::max(marginal, price);
    if (s.path_rate[v] > 1e-4 * s.app_rate[a]) {
      EXPECT_NEAR(marginal, price, 0.05 * scale)
          << "seed " << GetParam() << " var " << v;
    } else {
      EXPECT_LE(marginal, price * 1.05 + 1e-9)
          << "seed " << GetParam() << " var " << v;
    }
  }
}

TEST_P(FairnessRandom, LocalPerturbationsNeverImproveUtility) {
  Rng rng(testutil::test_seed() + GetParam() + 500);
  const PfProblem p = random_problem(rng, 3, 5);
  const PfSolution s = solve_weighted_pf(p);
  ASSERT_TRUE(s.converged);
  const double base = pf_utility(p, s.path_rate);

  auto feasible = [&](const std::vector<double>& x) {
    for (double v : x)
      if (v <= 0) return false;
    std::vector<double> used(p.capacity.size(), 0.0);
    for (std::size_t v = 0; v < x.size(); ++v)
      for (const auto& [row, coeff] : p.columns[v].entries)
        used[row] += coeff * x[v];
    for (std::size_t row = 0; row < used.size(); ++row)
      if (used[row] > p.capacity[row]) return false;
    return true;
  };

  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> x = s.path_rate;
    for (double& v : x) v += rng.uniform(-0.05, 0.05) * (v + 0.01);
    if (!feasible(x)) continue;
    EXPECT_LE(pf_utility(p, x), base + 1e-5)
        << "seed " << GetParam() << " trial " << trial;
  }
}

TEST_P(FairnessRandom, ScalingCapacitiesScalesRates) {
  Rng rng(testutil::test_seed() + GetParam() + 900);
  PfProblem p = random_problem(rng, 3, 5);
  const PfSolution s1 = solve_weighted_pf(p);
  for (double& c : p.capacity) c *= 4.0;
  const PfSolution s4 = solve_weighted_pf(p);
  ASSERT_TRUE(s1.converged);
  ASSERT_TRUE(s4.converged);
  for (std::size_t a = 0; a < p.app_count(); ++a)
    EXPECT_NEAR(s4.app_rate[a], 4.0 * s1.app_rate[a],
                0.02 * s4.app_rate[a])
        << "seed " << GetParam() << " app " << a;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FairnessRandom, ::testing::Range(1, 16));

}  // namespace
}  // namespace sparcle
