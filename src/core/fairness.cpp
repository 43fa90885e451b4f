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
/// Converged once the complementarity gap λᵀz + νᵀx is at most this,
/// and at most this times Σ_a w_a when the priorities sum to less than 1
/// (the duals scale with the priorities) ...
constexpr double kGapTol = 1e-8;
/// ... and every application's |y_a s_a − w_a| is at most this × w_a.
constexpr double kAppTol = 1e-9;
/// The application tolerance a solve that has to stop early (a failed
/// factorization or a step that is not finite) may still converge at.
constexpr double kAppTolOnStop = 1e-6;
/// Each step goes this fraction of the way to the nearest boundary.
constexpr double kStepToBoundary = 0.995;
/// A predictor that can take less than this fraction of its full step
/// predicts its second-order terms badly, so the corrector then only
/// re-centres.  Without this guard, 4 of 12900 problems drawn like those
/// of tests/test_fairness_hostile.cpp ran into the iteration cap.
constexpr double kMinPredictorStep = 0.1;
/// Hard cap on iterations per solve.
constexpr int kMaxIterations = 200;

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

/// The Newton matrix's factor, laid out once per solve, with the factor
/// slot of every matrix term in the assembly's walk order: v's row
/// terms, then its application terms (ending at app_end[v]), then its
/// diagonal (diag_slot[v]).
struct NewtonSystem {
  SparseCholesky h;
  std::vector<std::size_t> term_slot, app_end, diag_slot;
};

/// The Newton matrix's pattern is the pairs of variables that load a
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

/// A primal–dual point of the scaled problem, or a direction between two:
/// rates x, row slacks z, row duals λ, bound duals ν, and one dual y_a
/// per application.
struct PrimalDual {
  std::vector<double> x, z, lam, nu, y;
};
/// The blocks of a PrimalDual; an iterate is positive in all of them.
constexpr std::vector<double> PrimalDual::*kBlocks[] = {
    &PrimalDual::x, &PrimalDual::z, &PrimalDual::lam, &PrimalDual::nu,
    &PrimalDual::y};

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
  for (const auto& col : p.columns) {
    bool loaded = false;
    for (const auto& [row, coeff] : col.entries) {
      if (row >= p.capacity.size())
        throw std::invalid_argument(
            "solve_weighted_pf: a column entry names no constraint row");
      if (!std::isfinite(coeff))
        throw std::invalid_argument(
            "solve_weighted_pf: a column entry has a non-finite load");
      if (coeff < 0)
        throw std::invalid_argument(
            "solve_weighted_pf: a column entry has a negative load");
      loaded = loaded || coeff > 0;
    }
    // Problem (4) is unbounded in a variable that loads no row.
    if (!loaded)
      throw std::invalid_argument(
          "solve_weighted_pf: a column has no positive load");
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
  const std::vector<double>& w = p.app_priority;

  // Strictly feasible start: x_v = t with t = 0.4 / max_row Σ_v coeff.
  std::vector<double> row_sum(m, 0.0);
  for (const auto& col : s.columns)
    for (const auto& [row, coeff] : col.entries) row_sum[row] += coeff;
  double max_row = 0;
  for (double rs : row_sum) max_row = std::max(max_row, rs);
  const double t0 = max_row > 0 ? 0.4 / max_row : 1.0;

  // out_a = Σ_{v ∈ a} in_v (E in), and out_r = Σ_v R_rv in_v (R in).
  auto app_sum = [&](const std::vector<double>& in, std::vector<double>& out) {
    out.assign(na, 0.0);
    for (std::size_t v = 0; v < nv; ++v) out[p.var_app[v]] += in[v];
  };
  auto row_load = [&](const std::vector<double>& in, std::vector<double>& out) {
    out.assign(m, 0.0);
    for (std::size_t v = 0; v < nv; ++v)
      for (const auto& [row, coeff] : s.columns[v].entries)
        out[row] += coeff * in[v];
  };

  // The iterate, strictly positive in every block and centred at μ = 1.
  PrimalDual pt{std::vector<double>(nv, t0), {}, std::vector<double>(m),
                std::vector<double>(nv), std::vector<double>(na)};
  auto& [x, z, lam, nu, y] = pt;
  std::vector<double> sa;  // s = E x, the application rates
  row_load(x, z);
  for (std::size_t r = 0; r < m; ++r) {
    z[r] = 1.0 - z[r];
    lam[r] = 1.0 / z[r];
  }
  for (std::size_t v = 0; v < nv; ++v) nu[v] = 1.0 / x[v];
  app_sum(x, sa);
  for (std::size_t a = 0; a < na; ++a) y[a] = w[a] / sa[a];

  NewtonSystem sys = lay_out_newton_system(p, s);
  std::vector<double>& hv = sys.h.values();

  // The step's direction d, with ds = E d.x.
  PrimalDual d{{}, {}, std::vector<double>(m), std::vector<double>(nv),
               std::vector<double>(na)};
  std::vector<double> ds, c(m), cp(nv), c_over_z(m), rhs(nv);
  // The direction whose complementarity rows aim at λ_r z_r = c_r and
  // ν_v x_v = c′_v, from the factored M: M d.x = w/s − Rᵀ(c/z) + c′/x
  // (the dual residuals cancel), then the primal rows stay satisfied
  // (Δz = −R Δx) and the rows of y are linearized toward y_a s_a = w_a.
  // Returns the largest α ≤ 1 that keeps every block of pt + α d
  // nonnegative.
  auto direction = [&] {
    for (std::size_t r = 0; r < m; ++r) c_over_z[r] = c[r] / z[r];
    for (std::size_t v = 0; v < nv; ++v) {
      double g = w[p.var_app[v]] / sa[p.var_app[v]] + cp[v] / x[v];
      for (const auto& [row, coeff] : s.columns[v].entries)
        g -= coeff * c_over_z[row];
      rhs[v] = g;
    }
    sys.h.solve_factored(rhs, d.x);
    row_load(d.x, d.z);
    for (std::size_t r = 0; r < m; ++r) {
      d.z[r] = -d.z[r];
      d.lam[r] = c_over_z[r] - lam[r] - lam[r] / z[r] * d.z[r];
    }
    for (std::size_t v = 0; v < nv; ++v)
      d.nu[v] = cp[v] / x[v] - nu[v] - nu[v] / x[v] * d.x[v];
    app_sum(d.x, ds);
    for (std::size_t a = 0; a < na; ++a)
      d.y[a] = w[a] / sa[a] - y[a] - y[a] / sa[a] * ds[a];
    double alpha = 1.0;
    for (auto block : kBlocks) {
      const std::vector<double>& v = pt.*block;
      const std::vector<double>& dv = d.*block;
      for (std::size_t i = 0; i < v.size(); ++i)
        if (dv[i] < 0) alpha = std::min(alpha, -v[i] / dv[i]);
    }
    return alpha;
  };

  // Mehrotra's predictor–corrector: per iteration one factorization of
  // the Newton matrix, an affine-scaling solve (c = c′ = 0) to choose the
  // centring σμ, and a corrected solve; then one common step.
  const double n_pairs = static_cast<double>(m + nv);
  double total_priority = 0;
  for (double wa : w) total_priority += wa;
  const double gap_tol = kGapTol * std::min(1.0, total_priority);
  int iters = 0;
  bool converged = false;
  for (;;) {
    double gap = 0;
    for (std::size_t r = 0; r < m; ++r) gap += lam[r] * z[r];
    for (std::size_t v = 0; v < nv; ++v) gap += nu[v] * x[v];
    double app_residual = 0;  // worst |y_a s_a − w_a| / w_a
    for (std::size_t a = 0; a < na; ++a)
      app_residual =
          std::max(app_residual, std::abs(y[a] * sa[a] - w[a]) / w[a]);
    if (gap <= gap_tol && app_residual <= kAppTol) {
      converged = true;
      break;
    }
    if (iters == kMaxIterations) break;
    ++iters;
    // Stopped early, the point still counts when it nearly converged.
    const bool close = gap <= gap_tol && app_residual <= kAppTolOnStop;

    // M = Eᵀ diag(y/s) E + Rᵀ diag(λ/z) R + diag(ν/x), entry (v, u) for
    // u <= v, walked as lay_out_newton_system() laid its slots out.
    std::fill(hv.begin(), hv.end(), 0.0);
    std::size_t t = 0;
    for (std::size_t v = 0; v < nv; ++v) {
      for (const auto& [row, cv] : s.columns[v].entries) {
        const double dcv = lam[row] / z[row] * cv;
        for (std::size_t k = s.row_start[row];
             k < s.row_start[row + 1] && s.by_row[k].first <= v; ++k)
          hv[sys.term_slot[t++]] += dcv * s.by_row[k].second;
      }
      const std::size_t a = p.var_app[v];
      const double app_term = y[a] / sa[a];
      for (; t < sys.app_end[v]; ++t) hv[sys.term_slot[t]] += app_term;
      hv[sys.diag_slot[v]] += app_term + nu[v] / x[v];
    }
    if (!sys.h.factor()) {
      converged = close;
      break;
    }

    // Predictor: aim every complementarity pair at 0.
    std::fill(c.begin(), c.end(), 0.0);
    std::fill(cp.begin(), cp.end(), 0.0);
    const double alpha_aff = direction();
    double gap_aff = 0;
    for (std::size_t r = 0; r < m; ++r)
      gap_aff +=
          (lam[r] + alpha_aff * d.lam[r]) * (z[r] + alpha_aff * d.z[r]);
    for (std::size_t v = 0; v < nv; ++v)
      gap_aff +=
          (nu[v] + alpha_aff * d.nu[v]) * (x[v] + alpha_aff * d.x[v]);
    const double sigma_mu = std::pow(gap_aff / gap, 3) * gap / n_pairs;

    // Corrector: centre at σμ and cancel the predictor's second-order
    // terms on the complementarity rows, unless the predictor was cut
    // short; the application rows stay first order.
    const bool second_order = alpha_aff >= kMinPredictorStep;
    for (std::size_t r = 0; r < m; ++r)
      c[r] = second_order ? sigma_mu - d.lam[r] * d.z[r] : sigma_mu;
    for (std::size_t v = 0; v < nv; ++v)
      cp[v] = second_order ? sigma_mu - d.nu[v] * d.x[v] : sigma_mu;
    const double alpha = std::min(1.0, kStepToBoundary * direction());

    // Never step to a point that is not finite.
    bool finite = std::isfinite(alpha);
    for (auto block : kBlocks) {
      const std::vector<double>& v = pt.*block;
      const std::vector<double>& dv = d.*block;
      for (std::size_t i = 0; i < v.size() && finite; ++i)
        finite = std::isfinite(v[i] + alpha * dv[i]);
    }
    if (!finite) {
      converged = close;
      break;
    }
    for (auto block : kBlocks) {
      std::vector<double>& v = pt.*block;
      const std::vector<double>& dv = d.*block;
      for (std::size_t i = 0; i < v.size(); ++i) v[i] += alpha * dv[i];
    }
    app_sum(x, sa);
  }

  PfSolution out;
  // Assemble the solution in original units.
  out.path_rate = x;
  out.app_rate = sa;
  out.utility = 0;
  for (std::size_t a = 0; a < na; ++a)
    out.utility += w[a] * std::log(out.app_rate[a]);

  std::vector<double> used;
  row_load(x, used);
  out.dual.assign(p.capacity.size(), 0.0);
  double worst = m == 0 ? 0.0 : -kInf;
  for (std::size_t row = 0; row < m; ++row) {
    // The row was divided by C, so the price in original units is λ / C.
    const double cap = p.capacity[s.row_of[row]];
    out.dual[s.row_of[row]] = lam[row] / cap;
    // Violation in original units (negative while strictly feasible).
    worst = std::max(worst, (used[row] - 1.0) * cap);
  }
  out.max_violation = worst;
  out.converged = converged;
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
