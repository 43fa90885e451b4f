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
/// network element.  Solved with a log-barrier Newton interior-point
/// method; the solution reports the dual prices λ so tests can verify the
/// KKT conditions.

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
  bool converged{false};  ///< duality gap reached tolerance within the cap
  std::vector<double> path_rate;  ///< one per variable
  std::vector<double> app_rate;   ///< Σ of the app's path rates
  double utility{0.0};            ///< Σ P_i log(app_rate_i)
  /// Dual price per constraint row (λ of the KKT system), in original units.
  std::vector<double> dual;
  /// Largest constraint violation of the returned point (should be <= 0).
  double max_violation{0.0};
  /// Newton iterations spent (solver-cost metric).
  int newton_iters{0};
  /// Entries of each Newton step's Cholesky factor: its sparse columns
  /// plus its dense clique block (a dense factor has nv(nv+1)/2).
  std::size_t factor_entries{0};
};

/// Solves the weighted proportional-fairness problem.  Every call starts
/// from the same strictly feasible point, so the solution is a function of
/// `problem` alone, bit for bit.  The barrier schedule stops once the
/// scaled duality gap is below 1e-8 or after 400 Newton steps.  Each
/// Newton system is solved by a SparseCholesky (core/smallmat.hpp) over
/// the pattern of variables that share a loaded row or an application.
/// Throws std::invalid_argument on malformed input: empty apps; a
/// priority that is not positive or not finite; a variable naming no
/// application or a column entry naming no constraint row; a column
/// entry whose load is not finite (NaN or ±inf); an application with no
/// variables; a loaded row whose capacity is not finite; or a variable
/// constrained by a zero-capacity row — such paths must be dropped by
/// the caller.
PfSolution solve_weighted_pf(const PfProblem& problem);

/// Σ P_i log(Σ paths of i), for reporting utilities of externally chosen
/// rates (e.g. baseline algorithms in the Fig. 13 benchmark).
double pf_utility(const PfProblem& problem,
                  const std::vector<double>& path_rate);

}  // namespace sparcle
