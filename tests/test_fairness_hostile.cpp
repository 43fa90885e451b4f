/// \file test_fairness_hostile.cpp
/// Hostile numerics for the proportional-fairness solver: seeded
/// families of random problems whose capacities, priorities or loads
/// span many decades.  Each solve certifies itself against the KKT
/// conditions of problem (4), with no oracle: it converges, overloads no
/// row beyond rounding, and its row prices λ match the marginal utility
/// P_a / x_a of every path that carries traffic and cover it on every
/// path that does not.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/fairness.hpp"
#include "testutil.hpp"
#include "workload/rng.hpp"

namespace sparcle {
namespace {

/// The quantity a family draws across decades; the others stay tame.
enum class Wide { kCapacity, kPriority, kLoad };

double decades(Rng& rng, double lo, double hi) {
  return std::pow(10.0, rng.uniform(lo, hi));
}

/// 2–40 apps with 1–3 paths each over 3–30 rows; every path loads 1–3
/// distinct rows.  Capacities are 10^U(−6,6) (kCapacity) or U(10,100);
/// priorities 10^U(−3,3) (kPriority) or U(0.5,4); loads 10^U(−8,0) of
/// the row's capacity (kLoad) or U(0.5,5).
PfProblem hostile_problem(Rng& rng, Wide wide) {
  const std::size_t apps = static_cast<std::size_t>(rng.uniform_int(2, 40));
  const std::size_t rows = static_cast<std::size_t>(rng.uniform_int(3, 30));
  PfProblem p;
  p.capacity.resize(rows);
  for (double& c : p.capacity)
    c = wide == Wide::kCapacity ? decades(rng, -6, 6) : rng.uniform(10, 100);
  for (std::size_t a = 0; a < apps; ++a) {
    p.app_priority.push_back(wide == Wide::kPriority ? decades(rng, -3, 3)
                                                     : rng.uniform(0.5, 4.0));
    const int paths = static_cast<int>(rng.uniform_int(1, 3));
    for (int k = 0; k < paths; ++k) {
      PfProblem::Column col;
      const int touches = static_cast<int>(rng.uniform_int(1, 3));
      std::vector<char> used(rows, 0);
      for (int t = 0; t < touches; ++t) {
        const std::size_t row = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(rows) - 1));
        if (used[row]) continue;
        used[row] = 1;
        col.entries.emplace_back(row, wide == Wide::kLoad
                                          ? p.capacity[row] *
                                                decades(rng, -8, 0)
                                          : rng.uniform(0.5, 5.0));
      }
      p.columns.push_back(std::move(col));
      p.var_app.push_back(a);
    }
  }
  return p;
}

/// The solution of `p` converged and satisfies the KKT conditions.
::testing::AssertionResult certified(const PfProblem& p,
                                     const PfSolution& s) {
  if (!s.converged)
    return ::testing::AssertionFailure()
           << "not converged after " << s.newton_iters << " iterations";
  std::vector<double> used(p.capacity.size(), 0.0);
  for (std::size_t v = 0; v < p.var_count(); ++v) {
    if (!std::isfinite(s.path_rate[v]) || !(s.path_rate[v] > 0))
      return ::testing::AssertionFailure()
             << "path " << v << " rate " << s.path_rate[v];
    for (const auto& [row, coeff] : p.columns[v].entries)
      used[row] += coeff * s.path_rate[v];
  }
  for (std::size_t row = 0; row < used.size(); ++row)
    if (used[row] > p.capacity[row] * (1 + 1e-12))
      return ::testing::AssertionFailure()
             << "row " << row << " carries " << used[row] << " of "
             << p.capacity[row];
  for (std::size_t v = 0; v < p.var_count(); ++v) {
    const std::size_t a = p.var_app[v];
    double price = 0;
    for (const auto& [row, coeff] : p.columns[v].entries)
      price += s.dual[row] * coeff;
    const double marginal = p.app_priority[a] / s.app_rate[a];
    if (s.path_rate[v] >= 1e-4 * s.app_rate[a]) {
      if (std::abs(price - marginal) > 1e-3 * std::max(price, marginal))
        return ::testing::AssertionFailure()
               << "path " << v << " carries " << s.path_rate[v]
               << " at price " << price << " vs marginal " << marginal;
    } else if (price < marginal * (1 - 1e-6)) {
      return ::testing::AssertionFailure()
             << "idle path " << v << " priced " << price
             << " below marginal " << marginal;
    }
  }
  return ::testing::AssertionSuccess();
}

void certify_family(Wide wide, std::uint64_t seed) {
  Rng rng(testutil::test_seed() + seed);
  for (int i = 0; i < 300; ++i) {
    const PfProblem p = hostile_problem(rng, wide);
    ASSERT_TRUE(certified(p, solve_weighted_pf(p)))
        << "problem " << i << " (" << p.app_count() << " apps, "
        << p.var_count() << " paths, " << p.capacity.size() << " rows)";
  }
}

TEST(FairnessHostile, CapacitiesAcrossTwelveDecades) {
  certify_family(Wide::kCapacity, 2101);
}

TEST(FairnessHostile, PrioritiesAcrossSixDecades) {
  certify_family(Wide::kPriority, 2102);
}

TEST(FairnessHostile, LoadsAcrossEightDecadesOfTheirRow) {
  certify_family(Wide::kLoad, 2103);
}

}  // namespace
}  // namespace sparcle
