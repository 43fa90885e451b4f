/// \file test_fairness_reference.cpp
/// Oracle test for the PF Newton step: solve_weighted_pf() must return,
/// bit for bit, what the dense reference below returns.  The reference is
/// the straightforward solver: the same barrier schedule and constants,
/// an all-pairs column scan for every Hessian entry, and the row-by-row
/// Cholesky of reference_cholesky.hpp applied to P H P^T, where P is the
/// minimum_degree_order() of the Hessian pattern the reference derives
/// itself (variables sharing a loaded row or an application).  The
/// library assembles each Hessian entry from a by-row transpose and
/// factors it sparse, with a dense block for the final clique; both keep
/// every entry's summation order, so any change to that order shows up
/// here as a differing bit.  The same reference in identity order is the
/// dense solver the sparse one replaced; a second check bounds how far
/// the library's numbers drift from it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
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

/// The elimination order the reference factors the Newton system in.
enum class Order {
  kMinimumDegree,  ///< minimum_degree_order() of the Hessian pattern
  kIdentity,       ///< the natural order of the dense solver
};

/// The Newton system's elimination order: pairs u < v that load a common
/// loaded row or belong to one application are the pattern.
std::vector<std::size_t> newton_order(const PfProblem& p, const Scaled& s,
                                      Order order) {
  const std::size_t nv = s.columns.size();
  std::vector<std::size_t> perm(nv);
  for (std::size_t v = 0; v < nv; ++v) perm[v] = v;
  if (order == Order::kIdentity) return perm;
  SymmetricPattern pattern{nv, {}};
  for (std::size_t v = 0; v < nv; ++v)
    for (std::size_t u = 0; u < v; ++u) {
      bool linked = p.var_app[u] == p.var_app[v];
      for (const auto& [rv, cv] : s.columns[v].entries)
        for (const auto& [ru, cu] : s.columns[u].entries)
          if (rv == ru) linked = true;
      if (linked) pattern.entries.emplace_back(v, u);
    }
  return minimum_degree_order(pattern);
}

PfSolution reference_solve(const PfProblem& p,
                           Order order = Order::kMinimumDegree) {
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
  const std::vector<std::size_t> perm = newton_order(p, s, order);

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

      // Solve P H P^T (P d) = P g.
      Matrix hp(nv, nv);
      std::vector<double> gp(nv), dp;
      for (std::size_t i = 0; i < nv; ++i) {
        gp[i] = grad[perm[i]];
        for (std::size_t j = 0; j < nv; ++j) hp(i, j) = h(perm[i], perm[j]);
      }
      if (testutil::reference_cholesky_solve(hp, gp, dp)) {
        for (std::size_t i = 0; i < nv; ++i) dir[perm[i]] = dp[i];
      } else {
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
/// loading one row twice; some entries are non-positive (dropped by the
/// solver) and some rows are loaded by nobody (one of those has zero
/// capacity, which is allowed for an unloaded row).
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
            static_cast<std::size_t>(rng.uniform_int(0, last)),
            rng.bernoulli(0.5) ? 0.0 : -1.0);
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

// ---- Bit-for-bit comparison ----------------------------------------------

/// Every output of `got` equals `want` bit for bit.
::testing::AssertionResult bit_identical(const PfSolution& got,
                                         const PfSolution& want) {
  const struct {
    const char* name;
    std::vector<double> got, want;
  } fields[] = {{"path_rate", got.path_rate, want.path_rate},
                {"app_rate", got.app_rate, want.app_rate},
                {"dual", got.dual, want.dual},
                {"utility", {got.utility}, {want.utility}},
                {"max_violation", {got.max_violation}, {want.max_violation}}};
  for (const auto& f : fields) {
    if (f.got.size() != f.want.size())
      return ::testing::AssertionFailure() << f.name << " size differs";
    for (std::size_t i = 0; i < f.want.size(); ++i)
      if (std::memcmp(&f.got[i], &f.want[i], sizeof(double)) != 0)
        return ::testing::AssertionFailure()
               << f.name << "[" << i << "]: got " << f.got[i]
               << ", reference " << f.want[i];
  }
  if (got.newton_iters != want.newton_iters)
    return ::testing::AssertionFailure()
           << "newton_iters " << got.newton_iters << " vs reference "
           << want.newton_iters;
  if (got.converged != want.converged)
    return ::testing::AssertionFailure() << "converged differs";
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

TEST(FairnessReference, RandomProblemsMatchBitForBit) {
  const std::vector<PfProblem> problems = random_problems();
  for (std::size_t i = 0; i < problems.size(); ++i)
    ASSERT_TRUE(bit_identical(solve_weighted_pf(problems[i]),
                              reference_solve(problems[i])))
        << "problem " << i;
}

TEST(FairnessReference, UnsortedAndRepeatedRowColumnsMatchBitForBit) {
  const std::vector<PfProblem> problems = messy_problems();
  for (std::size_t i = 0; i < problems.size(); ++i)
    ASSERT_TRUE(bit_identical(solve_weighted_pf(problems[i]),
                              reference_solve(problems[i])))
        << "problem " << i;
}

TEST(FairnessReference, Pf96ShapedProblemsMatchBitForBit) {
  const std::vector<PfProblem> problems = pf96_problems();
  for (std::size_t i = 0; i < problems.size(); ++i)
    ASSERT_TRUE(bit_identical(solve_weighted_pf(problems[i]),
                              reference_solve(problems[i])))
        << "problem " << i << " (" << problems[i].var_count() << " vars)";
}

// The minimum-degree order changes each factor entry's summation order,
// so the rates move off the dense solver's by rounding only.
TEST(FairnessReference, DriftFromTheDenseOrderIsRoundingOnly) {
  for (const auto& problems :
       {random_problems(), messy_problems(), pf96_problems()})
    for (std::size_t i = 0; i < problems.size(); ++i) {
      const PfSolution got = solve_weighted_pf(problems[i]);
      const PfSolution dense = reference_solve(problems[i], Order::kIdentity);
      ASSERT_EQ(got.app_rate.size(), dense.app_rate.size());
      for (std::size_t a = 0; a < dense.app_rate.size(); ++a)
        ASSERT_LE(std::abs(got.app_rate[a] - dense.app_rate[a]),
                  1e-8 * std::abs(dense.app_rate[a]))
            << "problem " << i << " app " << a;
      ASSERT_LE(std::abs(got.utility - dense.utility),
                1e-12 * std::abs(dense.utility))
          << "problem " << i;
      ASSERT_EQ(got.converged, dense.converged) << "problem " << i;
      ASSERT_EQ(got.max_violation > 1e-6, dense.max_violation > 1e-6)
          << "problem " << i;
    }
}

}  // namespace
}  // namespace sparcle
