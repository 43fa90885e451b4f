/// \file test_fairness_reference.cpp
/// Oracle test for the PF solver: solve_weighted_pf() must agree, within
/// stated tolerances, with the dense reference below on 304 problems.
/// The reference is the solver the primal–dual one replaced, written
/// plainly: a log-barrier Newton method (μ from 1, times 0.15 per phase,
/// damped steps with a backtracking line search) with an all-pairs
/// column scan for every Hessian entry and the row-by-row Cholesky of
/// reference_cholesky.hpp in natural order.  The two methods stop at
/// different points near the optimum, so their answers are compared by
/// rate, utility and outcome rather than bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/fairness.hpp"
#include "core/smallmat.hpp"
#include "random_pf_problem.hpp"
#include "reference_cholesky.hpp"
#include "testutil.hpp"
#include "workload/rng.hpp"

namespace sparcle {
namespace {

using testutil::Matrix;

// ---- The reference solver ------------------------------------------------

constexpr double kDualityGapTol = 1e-8;
constexpr int kMaxNewtonSteps = 400;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Internal normalized problem: rows scaled so capacity == 1, and rows
/// with no coefficients dropped.
struct Scaled {
  std::vector<PfProblem::Column> columns;  // coefficients divided by C_row
  std::vector<std::size_t> row_of;         // scaled row -> original row
  std::size_t rows{0};
};

Scaled scale_problem(const PfProblem& p) {
  // A row participates if some column loads it.
  std::vector<char> used(p.capacity.size(), 0);
  for (const auto& col : p.columns)
    for (const auto& [row, coeff] : col.entries)
      if (coeff > 0) used.at(row) = 1;

  std::vector<std::size_t> new_row(p.capacity.size(), SIZE_MAX);
  Scaled s;
  for (std::size_t e = 0; e < p.capacity.size(); ++e) {
    if (!used[e]) continue;
    if (p.capacity[e] <= 0)
      throw std::invalid_argument(
          "solve_weighted_pf: a loaded constraint row has zero capacity");
    new_row[e] = s.rows++;
    s.row_of.push_back(e);
  }
  s.columns.resize(p.columns.size());
  for (std::size_t v = 0; v < p.columns.size(); ++v)
    for (const auto& [row, coeff] : p.columns[v].entries)
      if (coeff > 0)
        s.columns[v].entries.emplace_back(new_row[row],
                                          coeff / p.capacity[row]);
  return s;
}

PfSolution reference_solve(const PfProblem& p) {
  const std::size_t nv = p.var_count();
  const std::size_t na = p.app_count();
  if (na == 0 || nv == 0)
    throw std::invalid_argument("solve_weighted_pf: empty problem");
  if (p.var_app.size() != nv)
    throw std::invalid_argument("solve_weighted_pf: var_app size mismatch");
  for (double pr : p.app_priority)
    if (!(pr > 0))
      throw std::invalid_argument(
          "solve_weighted_pf: priorities must be positive");
  std::vector<char> app_has_var(na, 0);
  for (std::size_t a : p.var_app) app_has_var.at(a) = 1;
  for (std::size_t a = 0; a < na; ++a)
    if (!app_has_var[a])
      throw std::invalid_argument(
          "solve_weighted_pf: application with no path variables");

  const Scaled s = scale_problem(p);
  const std::size_t m = s.rows;

  // Strictly feasible start: x_v = t with t = 0.4 / max_row Σ_v coeff.
  std::vector<double> row_sum(m, 0.0);
  for (const auto& col : s.columns)
    for (const auto& [row, coeff] : col.entries) row_sum[row] += coeff;
  double max_row = 0;
  for (double rs : row_sum) max_row = std::max(max_row, rs);
  const double t0 = max_row > 0 ? 0.4 / max_row : 1.0;

  auto app_sum = [&](const std::vector<double>& xx, std::vector<double>& sa) {
    sa.assign(na, 0.0);
    for (std::size_t v = 0; v < nv; ++v) sa[p.var_app[v]] += xx[v];
  };
  auto slacks = [&](const std::vector<double>& xx, std::vector<double>& sl) {
    sl.assign(m, 1.0);
    for (std::size_t v = 0; v < nv; ++v)
      for (const auto& [row, coeff] : s.columns[v].entries)
        sl[row] -= coeff * xx[v];
  };

  std::vector<double> sa, sl;
  // Barrier objective for the line search.
  auto barrier_value = [&](const std::vector<double>& xx, double mu) {
    app_sum(xx, sa);
    slacks(xx, sl);
    double val = 0;
    for (std::size_t a = 0; a < na; ++a) {
      if (sa[a] <= 0) return -kInf;
      val += p.app_priority[a] * std::log(sa[a]);
    }
    for (double sv : sl) {
      if (sv <= 0) return -kInf;
      val += mu * std::log(sv);
    }
    for (double xv : xx) {
      if (xv <= 0) return -kInf;
      val += mu * std::log(xv);
    }
    return val;
  };

  const double n_constraints = static_cast<double>(m + nv);

  // The log-barrier μ-continuation loop from the strictly feasible start:
  // at most 50 damped Newton steps per μ, then μ *= 0.15, until the scaled
  // duality gap drops below tolerance or the iteration cap is spent.
  std::vector<double> x(nv, t0), grad(nv), dir(nv), xn(nv);
  double mu = 1.0;
  double mu_last = mu;  // μ of the final executed Newton phase
  int iters = 0;
  int newton_budget = kMaxNewtonSteps;
  while (mu * n_constraints > kDualityGapTol && newton_budget > 0) {
    mu_last = mu;
    // Newton iterations at this μ.
    for (int it = 0; it < 50 && newton_budget > 0; ++it, --newton_budget) {
      ++iters;
      app_sum(x, sa);
      slacks(x, sl);

      // Gradient.
      for (std::size_t v = 0; v < nv; ++v) {
        double g = p.app_priority[p.var_app[v]] / sa[p.var_app[v]];
        g += mu / x[v];
        for (const auto& [row, coeff] : s.columns[v].entries)
          g -= mu * coeff / sl[row];
        grad[v] = g;
      }

      // Negative Hessian (positive definite).
      Matrix h(nv, nv, 0.0);
      for (std::size_t v = 0; v < nv; ++v) {
        const std::size_t a = p.var_app[v];
        const double app_term = p.app_priority[a] / (sa[a] * sa[a]);
        for (std::size_t u = 0; u < nv; ++u)
          if (p.var_app[u] == a) h(v, u) += app_term;
        h(v, v) += mu / (x[v] * x[v]);
      }
      for (std::size_t v = 0; v < nv; ++v)
        for (std::size_t u = 0; u <= v; ++u) {
          // Σ_rows μ R_rv R_ru / slack², exploiting sparse columns.
          double val = 0;
          for (const auto& [rv, cv] : s.columns[v].entries)
            for (const auto& [ru, cu] : s.columns[u].entries)
              if (rv == ru) val += mu * cv * cu / (sl[rv] * sl[rv]);
          h(v, u) += val;
          if (u != v) h(u, v) += val;
        }

      if (!testutil::reference_cholesky_solve(h, grad, dir)) {
        // Numerical trouble: fall back to a (scaled) gradient step.
        dir = grad;
      }

      // Newton decrement (stopping criterion): grad^T dir.
      double decrement = 0;
      for (std::size_t v = 0; v < nv; ++v) decrement += grad[v] * dir[v];
      if (decrement < 1e-12) break;

      // Backtracking line search on the barrier objective.
      const double base = barrier_value(x, mu);
      double step = 1.0;
      bool moved = false;
      for (int ls = 0; ls < 60; ++ls, step *= 0.5) {
        for (std::size_t v = 0; v < nv; ++v) xn[v] = x[v] + step * dir[v];
        const double val = barrier_value(xn, mu);
        if (val > base + 1e-4 * step * decrement) {
          x = xn;
          moved = true;
          break;
        }
      }
      if (!moved) break;
    }
    mu *= 0.15;
  }

  PfSolution out;
  // Assemble the solution in original units.
  out.path_rate = x;
  app_sum(x, out.app_rate);
  out.utility = 0;
  for (std::size_t a = 0; a < na; ++a)
    out.utility += p.app_priority[a] * std::log(out.app_rate[a]);

  slacks(x, sl);
  out.dual.assign(p.capacity.size(), 0.0);
  double worst = m == 0 ? 0.0 : -kInf;
  for (std::size_t row = 0; row < m; ++row) {
    // λ_row = μ / slack (scaled); the row was divided by C, so the price in
    // original units is λ_scaled / C.
    out.dual[s.row_of[row]] =
        mu_last / std::max(sl[row], 1e-300) / p.capacity[s.row_of[row]];
    // Violation in original units (negative while strictly feasible).
    worst = std::max(worst, -sl[row] * p.capacity[s.row_of[row]]);
  }
  out.max_violation = worst;
  out.converged = mu * n_constraints <= kDualityGapTol;
  out.newton_iters = iters;
  return out;
}

// ---- Problem generators --------------------------------------------------

/// Columns whose entries are in no particular row order, most of them
/// loading one row twice; some entries are zero (dropped by the solver;
/// a negative one is malformed) and some rows are loaded by nobody (one
/// of those has zero capacity, which is allowed for an unloaded row).
PfProblem messy_problem(Rng& rng) {
  const std::size_t apps = static_cast<std::size_t>(rng.uniform_int(2, 10));
  const std::size_t rows = static_cast<std::size_t>(rng.uniform_int(4, 16));
  PfProblem p;
  p.capacity.resize(rows);
  for (double& c : p.capacity) c = rng.uniform(5, 500);
  // The last row stays unloaded.
  p.capacity.push_back(0.0);
  const int last = static_cast<int>(rows) - 1;
  for (std::size_t a = 0; a < apps; ++a) {
    p.app_priority.push_back(rng.uniform(0.25, 8.0));
    const int paths = static_cast<int>(rng.uniform_int(1, 3));
    for (int k = 0; k < paths; ++k) {
      PfProblem::Column col;
      const int touches = static_cast<int>(rng.uniform_int(2, 6));
      for (int t = 0; t < touches; ++t)
        col.entries.emplace_back(
            static_cast<std::size_t>(rng.uniform_int(0, last)),
            rng.uniform(0.1, 6.0));
      if (rng.bernoulli(0.8)) {
        const auto repeated = col.entries[static_cast<std::size_t>(
            rng.uniform_int(0, touches - 1))];
        col.entries.emplace_back(repeated.first, rng.uniform(0.1, 6.0));
      }
      if (rng.bernoulli(0.2))
        col.entries.emplace_back(
            static_cast<std::size_t>(rng.uniform_int(0, last)), 0.0);
      // Shuffle so no column lists its rows in order.
      for (std::size_t i = col.entries.size(); i > 1; --i)
        std::swap(col.entries[i - 1],
                  col.entries[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(i) - 1))]);
      p.columns.push_back(std::move(col));
      p.var_app.push_back(a);
    }
  }
  return p;
}

/// The shape of the BE re-solves at 64 NCPs and ~96 placed apps: 80–300
/// path variables (1–3 per app) over a pool of ~120 loaded rows, each
/// column loading 5–20 distinct rows, with NCP-like and link-like
/// capacity units side by side.
PfProblem pf96_problem(Rng& rng) {
  const std::size_t vars = static_cast<std::size_t>(rng.uniform_int(80, 300));
  const std::size_t rows = static_cast<std::size_t>(rng.uniform_int(110, 130));
  PfProblem p;
  p.capacity.resize(rows);
  for (double& c : p.capacity)
    c = rng.uniform(10, 100) * (rng.bernoulli(0.5) ? 1e3 : 1e7);
  while (p.columns.size() < vars) {
    const std::size_t a = p.app_priority.size();
    p.app_priority.push_back(rng.uniform(0.5, 4.0));
    const int paths = static_cast<int>(rng.uniform_int(1, 3));
    for (int k = 0; k < paths && p.columns.size() < vars; ++k) {
      PfProblem::Column col;
      const int touches = static_cast<int>(rng.uniform_int(5, 20));
      std::vector<char> used(rows, 0);
      while (static_cast<int>(col.entries.size()) < touches) {
        const std::size_t row = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(rows) - 1));
        if (used[row]) continue;
        used[row] = 1;
        col.entries.emplace_back(row,
                                 p.capacity[row] * rng.uniform(0.002, 0.2));
      }
      p.columns.push_back(std::move(col));
      p.var_app.push_back(a);
    }
  }
  return p;
}

// ---- Tolerance comparison ------------------------------------------------

/// `got` agrees with the reference's `want`: both converged, they agree on
/// whether the point is overloaded, every application rate is within
/// 1e-4 relative, the utilities are within 1e-7, and `got` took at most
/// 25 iterations.
::testing::AssertionResult agrees(const PfSolution& got,
                                  const PfSolution& want) {
  if (!got.converged || !want.converged)
    return ::testing::AssertionFailure()
           << "converged: " << got.converged << ", reference "
           << want.converged;
  if ((got.max_violation > 1e-6) != (want.max_violation > 1e-6))
    return ::testing::AssertionFailure()
           << "max_violation " << got.max_violation << ", reference "
           << want.max_violation;
  if (got.app_rate.size() != want.app_rate.size())
    return ::testing::AssertionFailure() << "app_rate size differs";
  for (std::size_t a = 0; a < want.app_rate.size(); ++a)
    if (!(std::abs(got.app_rate[a] - want.app_rate[a]) <=
          1e-4 * want.app_rate[a]))
      return ::testing::AssertionFailure()
             << "app " << a << " rate " << got.app_rate[a] << ", reference "
             << want.app_rate[a];
  if (!(std::abs(got.utility - want.utility) <= 1e-7))
    return ::testing::AssertionFailure()
           << "utility " << got.utility << ", reference " << want.utility;
  if (got.newton_iters > 25)
    return ::testing::AssertionFailure()
           << got.newton_iters << " iterations (reference "
           << want.newton_iters << ")";
  return ::testing::AssertionSuccess();
}

// ---- The problem sets: 200 + 80 + 24 = 304 problems in all ------------

std::vector<PfProblem> random_problems() {
  Rng rng(testutil::test_seed() + 1601);
  std::vector<PfProblem> out;
  for (int i = 0; i < 200; ++i)
    out.push_back(testutil::random_problem(
        rng, static_cast<std::size_t>(rng.uniform_int(2, 12)),
        static_cast<std::size_t>(rng.uniform_int(3, 12))));
  return out;
}

std::vector<PfProblem> messy_problems() {
  Rng rng(testutil::test_seed() + 1602);
  std::vector<PfProblem> out;
  for (int i = 0; i < 80; ++i) out.push_back(messy_problem(rng));
  return out;
}

std::vector<PfProblem> pf96_problems() {
  Rng rng(testutil::test_seed() + 1603);
  std::vector<PfProblem> out;
  for (int i = 0; i < 24; ++i) out.push_back(pf96_problem(rng));
  return out;
}

void expect_agreement(const std::vector<PfProblem>& problems) {
  for (std::size_t i = 0; i < problems.size(); ++i)
    ASSERT_TRUE(agrees(solve_weighted_pf(problems[i]),
                       reference_solve(problems[i])))
        << "problem " << i << " (" << problems[i].var_count() << " vars)";
}

TEST(FairnessReference, RandomProblemsAgreeWithTheBarrierOracle) {
  expect_agreement(random_problems());
}

TEST(FairnessReference, UnsortedAndRepeatedRowColumnsAgreeWithTheBarrierOracle) {
  expect_agreement(messy_problems());
}

TEST(FairnessReference, Pf96ShapedProblemsAgreeWithTheBarrierOracle) {
  expect_agreement(pf96_problems());
}

}  // namespace
}  // namespace sparcle
