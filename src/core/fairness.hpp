#pragma once

#include <cstddef>
#include <utility>
#include <vector>

/// \file fairness.hpp
/// The Best-Effort resource-allocation problem (4) of §IV-C:
///
///   maximize  Σ_i P_i log(x_i)   subject to  R X <= C,  X >= 0,
///
/// generalized so each application's rate x_i is the *sum* of the rates of
/// its task-assignment paths (§IV-D multipath provisioning).  Each path is
/// one variable; its column in R holds the per-unit load it puts on every
/// network element.  Solved with Mehrotra's predictor–corrector
/// primal–dual interior-point method; the solution reports the row duals
/// λ, the congestion prices of proportional fairness, so tests can verify
/// the KKT conditions.

namespace sparcle {

/// The allocation problem in matrix form (rows = network-element capacity
/// constraints, columns = path-rate variables).
struct PfProblem {
  /// Capacity of each constraint row (one per element resource type).
  std::vector<double> capacity;

  /// Sparse column: (row index, per-unit load) pairs.
  struct Column {
    std::vector<std::pair<std::size_t, double>> entries;  ///< sparse loads
  };
  /// One sparse load column per path variable.
  std::vector<Column> columns;

  /// Which application each path variable belongs to.
  std::vector<std::size_t> var_app;
  /// Priority P_i of each application (all strictly positive).
  std::vector<double> app_priority;

  /// Number of applications.
  std::size_t app_count() const { return app_priority.size(); }
  /// Number of path-rate variables.
  std::size_t var_count() const { return columns.size(); }
};

/// The allocation returned by solve_weighted_pf().
struct PfSolution {
  /// The stop rule of solve_weighted_pf() was met.  False when the
  /// iteration cap ran out, or when the solver had to stop early (a
  /// failed factorization or a step that was not finite) short of the
  /// looser early-stop rule; the rates are then the last iterate's.
  bool converged{false};
  std::vector<double> path_rate;  ///< one per variable, finite, >= 0
  std::vector<double> app_rate;   ///< Σ of the app's path rates
  double utility{0.0};            ///< Σ P_i log(app_rate_i)
  /// Dual price per constraint row in original units: the interior
  /// point's row dual λ_r of the capacity-scaled row, divided by C_r
  /// (0 for rows no variable loads).
  std::vector<double> dual;
  /// Largest constraint violation of the returned point (should be <= 0).
  double max_violation{0.0};
  /// Interior-point iterations spent (solver-cost metric); each is one
  /// factorization of the Newton matrix and two solves with it.
  int newton_iters{0};
  /// Entries of the Newton matrix's Cholesky factor: its sparse columns
  /// plus its dense clique block (a dense factor has nv(nv+1)/2).
  std::size_t factor_entries{0};
};

/// Solves the weighted proportional-fairness problem.  Every call starts
/// from the same strictly feasible point, so the solution is a function of
/// `problem` alone, bit for bit.
///
/// Rows are scaled to capacity 1.  The iterates are the rates x > 0, row
/// slacks z > 0, row duals λ, bound duals ν and one dual y_a per
/// application with y_a s_a = w_a (s_a its rate, w_a its priority).  Each
/// iteration factors M = Eᵀ diag(y/s) E + Rᵀ diag(λ/z) R + diag(ν/x)
/// once with a SparseCholesky (core/smallmat.hpp), over the pattern of
/// variables that share a loaded row or an application, and solves it
/// twice: Mehrotra's predictor and corrector.  It then takes one common
/// step at 0.995 of the distance to the boundary.
///
/// Stop rule: converged once λᵀz + νᵀx <= 1e-8 (times Σ w_a when the
/// priorities sum to less than 1) and |y_a s_a − w_a| <= 1e-9 w_a for
/// every application, or unconverged after 200 iterations.  When M fails
/// to factor, or a step would reach a point that is not finite, the
/// solver stops at the current iterate; it counts as converged only if
/// the gap already meets the rule and every application is within 1e-6.
/// The returned rates are therefore always finite and non-negative.
///
/// Throws std::invalid_argument on malformed input: empty apps; a
/// priority that is not positive or not finite; a variable naming no
/// application or a column entry naming no constraint row; a column
/// entry whose load is negative or not finite (NaN or ±inf); a column
/// with no positive load, in which problem (4) is unbounded; an
/// application with no variables; a loaded row whose capacity is not
/// finite; or a variable constrained by a zero-capacity row — such paths
/// must be dropped by the caller.
PfSolution solve_weighted_pf(const PfProblem& problem);

/// Σ P_i log(Σ paths of i), for reporting utilities of externally chosen
/// rates (e.g. baseline algorithms in the Fig. 13 benchmark).
double pf_utility(const PfProblem& problem,
                  const std::vector<double>& path_rate);

}  // namespace sparcle
