#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/assignment.hpp"
#include "core/scheduler.hpp"
#include "model/ids.hpp"

/// \file invariants.hpp
/// The correctness harness's ground truth: every condition a returned
/// solution must satisfy, checked from first principles (never through the
/// code paths that produced the solution).  A single task-assignment result
/// is checked against problem (1)'s constraints; a whole Scheduler state is
/// checked against the admission contract of §IV — capacity feasibility
/// under residual accounting, the bottleneck-rate formula, pin/DAG/route
/// structure, GR min-rate availability (eq. (7)), and weighted
/// proportional-fair optimality of the Best-Effort allocation (problem (4)).
///
/// Violations are returned as structured records (which invariant, which
/// application, which element, by how much) rather than a bool, so the
/// fuzzer can shrink on a *specific* failure and tests can assert that a
/// deliberately broken solver trips a *specific* wire.

namespace sparcle::check {

/// Which invariant a violation breaks.  docs/testing.md carries the
/// catalog mapping each code to the paper condition it encodes.
enum class InvariantCode {
  kPlacementStructure,   ///< CT off-network / route not contiguous / shape
  kPinViolated,          ///< a pinned CT is hosted away from its pin
  kLoadMismatch,         ///< stored per-unit LoadMap != recomputed one
  kElementsMismatch,     ///< stored element set != placement's used set
  kRateNotBottleneck,    ///< reported rate != min_j C_j / Σ a_i formula
  kRateAccounting,       ///< allocated_rate != Σ path rates, or negative
  kCapacityExceeded,     ///< Σ rate·load > capacity on some element
  kResidualMismatch,     ///< scheduler residual != capacity - reservations
  kGrGuaranteeViolated,  ///< admitted GR app below its minimum rate
  kGrAvailabilityShort,  ///< eq. (7) availability below the admitted target
  kBeNotPf,              ///< BE rates not PF-optimal within tolerance
  kDeadPathCarriesRate,  ///< a path over a failed element still has rate

  // Oracle verdicts (src/check/oracles.hpp): cross-checks between two
  // solver runs rather than conditions on a single solution.
  kOracleInfeasible,     ///< heuristic infeasible where the optimum exists
  kOracleSuboptimal,     ///< heuristic rate above the exhaustive optimum
  kOracleNotMonotone,    ///< raising an NCP capacity lowered the optimum
  kOracleScalingBroken,  ///< uniform scaling changed the solution shape
  kOracleRemovalVariant, ///< dropping unused links changed the rate
  kOracleOrderDependent, ///< arrival-order permutation changed the outcome
};

const char* to_string(InvariantCode code);

/// One broken invariant, with enough structure to localize and rank it.
struct Violation {
  InvariantCode code{InvariantCode::kPlacementStructure};
  std::string app;            ///< offending application; empty = global
  ElementKey element{};       ///< offending element, when element-scoped
  bool element_scoped{false};
  /// Signed margin of the violated inequality (negative = violated by that
  /// much, in the inequality's own units); 0 for structural violations.
  double slack{0.0};
  std::string detail;
};

/// The checker's verdict: all violations found, not just the first.
struct CheckReport {
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  bool has(InvariantCode code) const;
  /// Multi-line human-readable rendering (empty string when ok()).
  std::string to_string() const;
};

struct CheckOptions {
  /// Relative slack for capacity / rate-accounting comparisons (the PF
  /// interior point and reservation arithmetic carry ~1e-8 noise).
  double tolerance{1e-6};
  /// Extra slack for the recomputed min-rate availability vs the admitted
  /// target (the scheduler admits at `achieved + 1e-12 >= target`).
  double availability_tolerance{1e-6};
  /// The observed BE utility must be within this of the re-solved optimum
  /// (both solves stop at a ~1e-8 duality gap).
  double pf_utility_tolerance{1e-4};
  /// Verify BE proportional-fair optimality by re-solving problem (4).
  /// The re-solve is the most expensive check; fuzz loops may disable it
  /// on steps where the allocation did not change.
  bool check_pf_optimality{true};
  /// Monte-Carlo trials for GR availability when the path count exceeds
  /// kMaxExactPaths (the exact inclusion–exclusion guard).
  std::size_t mc_trials{20000};
  std::uint64_t mc_seed{0x5bac1e};
  /// The scheduler has seen no element failures (and no failure-driven
  /// repair), so admission-time guarantees are enforceable strictly:
  /// every placed app has at least one path, every GR reservation covers
  /// its minimum rate, and the admitted availability target holds.  After
  /// failures these may legitimately degrade (repair() keeps degraded
  /// apps placed and reports them); the default steady-state mode then
  /// checks *consistency* instead — a zero-path app carries zero rate, and
  /// a GR shortfall is acknowledged by degraded_gr_apps().
  bool assume_pristine{false};
};

/// Validates one task-assignment result against its problem: structural
/// placement validity, pins respected, and — for a feasible result — the
/// reported rate equal to the bottleneck formula under the problem's
/// capacities and strictly positive.
CheckReport check_assignment(const AssignmentProblem& problem,
                             const AssignmentResult& result,
                             const CheckOptions& options = {});

/// Validates a whole Scheduler state: every placed app's paths
/// (structure, pins, stored loads and element sets), rate accounting,
/// global capacity feasibility of Σ rate·load, residual-capacity
/// consistency, GR guarantees and min-rate availability targets, dead
/// paths carrying no BE rate, and PF optimality of the BE allocation.
CheckReport check_scheduler_state(const Scheduler& scheduler,
                                  const CheckOptions& options = {});

/// RAII installer of a Scheduler validation hook that runs
/// check_scheduler_state after every mutating operation and throws
/// std::logic_error with the full report on the first violation.
///
/// By default the hook is armed only in debug builds (`!NDEBUG`), so
/// examples construct one unconditionally and self-validate for free when
/// built for debugging; pass `force = true` (the CLI's --validate) to arm
/// it in any build.  Installation is process-global and not reentrant.
class ScopedValidation {
 public:
  explicit ScopedValidation(bool force = false, CheckOptions options = {});
  ~ScopedValidation();
  ScopedValidation(const ScopedValidation&) = delete;
  ScopedValidation& operator=(const ScopedValidation&) = delete;

  bool armed() const { return armed_; }

 private:
  bool armed_{false};
};

}  // namespace sparcle::check
