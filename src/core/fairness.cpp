#include "core/fairness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "core/smallmat.hpp"

namespace sparcle {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Converged once the scaled duality gap (m + nv) μ drops below this.
constexpr double kDualityGapTol = 1e-8;
/// Hard cap on Newton iterations per solve.
constexpr int kMaxNewtonSteps = 400;

/// Internal normalized problem: rows scaled so capacity == 1, and rows
/// with no coefficients dropped.
struct Scaled {
  std::vector<PfProblem::Column> columns;  // coefficients divided by C_row
  std::vector<std::size_t> row_of;         // scaled row -> original row
  std::size_t rows{0};
  /// The same loads by row: row r's (var, coeff) pairs are
  /// by_row[row_start[r] .. row_start[r + 1]), in var order and, within a
  /// var, in its column's entry order.
  std::vector<std::size_t> row_start;
  std::vector<std::pair<std::size_t, double>> by_row;
};

Scaled scale_problem(const PfProblem& p) {
  // A row participates if some column loads it.
  std::vector<char> used(p.capacity.size(), 0);
  for (const auto& col : p.columns)
    for (const auto& [row, coeff] : col.entries)
      if (coeff > 0) used[row] = 1;

  std::vector<std::size_t> new_row(p.capacity.size(), SIZE_MAX);
  Scaled s;
  for (std::size_t e = 0; e < p.capacity.size(); ++e) {
    if (!used[e]) continue;
    if (!std::isfinite(p.capacity[e]))
      throw std::invalid_argument(
          "solve_weighted_pf: a loaded constraint row has a non-finite "
          "capacity");
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

  // Counting-sort transpose; visiting vars in order keeps each row's list
  // sorted by var.
  s.row_start.assign(s.rows + 1, 0);
  for (const auto& col : s.columns)
    for (const auto& entry : col.entries) ++s.row_start[entry.first + 1];
  for (std::size_t r = 0; r < s.rows; ++r)
    s.row_start[r + 1] += s.row_start[r];
  s.by_row.resize(s.row_start[s.rows]);
  std::vector<std::size_t> next(s.row_start.begin(), s.row_start.end() - 1);
  for (std::size_t v = 0; v < s.columns.size(); ++v)
    for (const auto& [row, coeff] : s.columns[v].entries)
      s.by_row[next[row]++] = {v, coeff};
  return s;
}

/// The Newton system's factor, laid out once per solve, with the factor
/// slot of every Hessian term in the assembly's walk order: v's row
/// terms, then its application terms (ending at app_end[v]), then its
/// diagonal (diag_slot[v]).
struct NewtonSystem {
  SparseCholesky h;
  std::vector<std::size_t> term_slot, app_end, diag_slot;
};

/// The negative Hessian's pattern is the pairs of variables that load a
/// common row or belong to one application; its factor is ordered by
/// minimum degree.
NewtonSystem lay_out_newton_system(const PfProblem& p, const Scaled& s) {
  const std::size_t nv = s.columns.size();
  std::vector<std::vector<std::size_t>> app_vars(p.app_count());
  for (std::size_t v = 0; v < nv; ++v) app_vars[p.var_app[v]].push_back(v);
  // visit(u) for every term of row v of the lower triangle, in the
  // assembly's order: the row terms (u <= v), then the app terms (u < v).
  auto walk = [&](std::size_t v, auto&& visit) {
    for (const auto& entry : s.columns[v].entries)
      for (std::size_t k = s.row_start[entry.first];
           k < s.row_start[entry.first + 1] && s.by_row[k].first <= v; ++k)
        visit(s.by_row[k].first);
    for (std::size_t u : app_vars[p.var_app[v]]) {
      if (u >= v) break;
      visit(u);
    }
  };

  // Each pair once: seen[u] == v marks u as met in row v, at slot[u].
  std::vector<std::size_t> seen(nv, SIZE_MAX), slot(nv);
  SymmetricPattern pattern{nv, {}};
  std::size_t terms = 0;
  for (std::size_t v = 0; v < nv; ++v)
    walk(v, [&](std::size_t u) {
      ++terms;
      if (seen[u] == v) return;
      seen[u] = v;
      pattern.entries.emplace_back(v, u);
    });
  NewtonSystem sys{SparseCholesky(pattern), {}, std::vector<std::size_t>(nv),
                   std::vector<std::size_t>(nv)};
  std::fill(seen.begin(), seen.end(), SIZE_MAX);
  sys.term_slot.reserve(terms);
  for (std::size_t v = 0; v < nv; ++v) {
    walk(v, [&](std::size_t u) {
      if (seen[u] != v) {
        seen[u] = v;
        slot[u] = sys.h.slot(v, u);
      }
      sys.term_slot.push_back(slot[u]);
    });
    sys.app_end[v] = sys.term_slot.size();
    sys.diag_slot[v] = sys.h.slot(v, v);
  }
  return sys;
}

}  // namespace

PfSolution solve_weighted_pf(const PfProblem& p) {
  const std::size_t nv = p.var_count();
  const std::size_t na = p.app_count();
  if (na == 0 || nv == 0)
    throw std::invalid_argument("solve_weighted_pf: empty problem");
  if (p.var_app.size() != nv)
    throw std::invalid_argument("solve_weighted_pf: var_app size mismatch");
  for (double pr : p.app_priority)
    if (!(pr > 0) || !std::isfinite(pr))
      throw std::invalid_argument(
          "solve_weighted_pf: priorities must be positive and finite");
  for (const auto& col : p.columns)
    for (const auto& [row, coeff] : col.entries) {
      if (row >= p.capacity.size())
        throw std::invalid_argument(
            "solve_weighted_pf: a column entry names no constraint row");
      if (!std::isfinite(coeff))
        throw std::invalid_argument(
            "solve_weighted_pf: a column entry has a non-finite load");
    }
  std::vector<char> app_has_var(na, 0);
  for (std::size_t a : p.var_app) {
    if (a >= na)
      throw std::invalid_argument(
          "solve_weighted_pf: a variable names no application");
    app_has_var[a] = 1;
  }
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

  NewtonSystem sys = lay_out_newton_system(p, s);
  std::vector<double>& hv = sys.h.values();

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
    // The barrier value at x for this μ, once known: the line search's
    // accepted value is the next step's base.
    bool base_known = false;
    double base = 0;
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

      // Negative Hessian (positive definite), entry (v, u) for u <= v:
      //   [same app] P_a / s_a² + [u == v] μ / x_v²
      //   + Σ_rows μ R_rv R_ru / slack²,
      // the row sum walking v's entries in column order and, for each, the
      // vars u <= v that load the same row.  Keep this order (v's entries,
      // then u's, summed from 0, app and barrier terms added last): the
      // results must stay bit-identical to the dense oracle in
      // tests/test_fairness_reference.cpp.
      std::fill(hv.begin(), hv.end(), 0.0);
      std::size_t t = 0;
      for (std::size_t v = 0; v < nv; ++v) {
        for (const auto& [row, cv] : s.columns[v].entries) {
          const double mu_cv = mu * cv;
          const double sl2 = sl[row] * sl[row];
          for (std::size_t k = s.row_start[row];
               k < s.row_start[row + 1] && s.by_row[k].first <= v; ++k)
            hv[sys.term_slot[t++]] += mu_cv * s.by_row[k].second / sl2;
        }
        const std::size_t a = p.var_app[v];
        const double app_term = p.app_priority[a] / (sa[a] * sa[a]);
        for (; t < sys.app_end[v]; ++t)
          hv[sys.term_slot[t]] = app_term + hv[sys.term_slot[t]];
        const std::size_t d = sys.diag_slot[v];
        hv[d] = (app_term + mu / (x[v] * x[v])) + hv[d];
      }

      if (!sys.h.solve(grad, dir)) {
        // Numerical trouble: fall back to a (scaled) gradient step.
        dir = grad;
      }

      // Newton decrement (stopping criterion): grad^T dir.
      double decrement = 0;
      for (std::size_t v = 0; v < nv; ++v) decrement += grad[v] * dir[v];
      if (decrement < 1e-12) break;

      // Backtracking line search on the barrier objective.
      if (!base_known) base = barrier_value(x, mu);
      base_known = true;
      double step = 1.0;
      bool moved = false;
      for (int ls = 0; ls < 60; ++ls, step *= 0.5) {
        for (std::size_t v = 0; v < nv; ++v) xn[v] = x[v] + step * dir[v];
        const double val = barrier_value(xn, mu);
        if (val > base + 1e-4 * step * decrement) {
          x = xn;
          base = val;
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
  out.factor_entries = sys.h.factor_entries();
  return out;
}

double pf_utility(const PfProblem& p, const std::vector<double>& path_rate) {
  if (path_rate.size() != p.var_count())
    throw std::invalid_argument("pf_utility: rate vector size mismatch");
  std::vector<double> sa(p.app_count(), 0.0);
  for (std::size_t v = 0; v < p.var_count(); ++v)
    sa[p.var_app[v]] += path_rate[v];
  double u = 0;
  for (std::size_t a = 0; a < p.app_count(); ++a) {
    if (sa[a] <= 0) return -kInf;
    u += p.app_priority[a] * std::log(sa[a]);
  }
  return u;
}

}  // namespace sparcle
