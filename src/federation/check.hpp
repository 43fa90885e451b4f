#pragma once

#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "federation/federation.hpp"

/// \file check.hpp
/// The federation-level conservation check: proof that cross-shard
/// admission leaks nothing, no matter how admissions, aborts, removals,
/// and churn interleave (docs/federation.md, "Correctness").
///
/// Four layers, each rebuilt from first principles:
///
///  1. every shard scheduler passes check::check_scheduler_state (which
///     already rebuilds external-reservation load from the reservation
///     table — a shard-local leak trips kResidualMismatch there);
///  2. the shard reservation tables and the federation's cross-app table
///     correspond exactly: every hold belongs to a committed cross app
///     that lists the shard (an orphan hold is a leaked reserve), every
///     cross app holds on every shard it lists, and the held load equals
///     the app's committed load restricted to that shard, element by
///     element;
///  3. the federation planning residual equals full capacity minus the
///     recomputed sum of committed cross loads (failed elements zeroed);
///  4. boundary links — owned by no shard — carry at most their capacity.

namespace sparcle::federation {

/// Outcome of check_federation: every violation found, human-readable.
struct ConservationReport {
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  /// Newline-joined rendering (empty string when ok()).
  std::string to_string() const;
};

/// Runs the four-layer conservation check against a quiescent federation
/// (call drain() first: a cross admission in flight legitimately holds
/// reservations that no cross app lists yet).  Shard states are observed
/// race-free via SchedulerService::inspect().
ConservationReport check_federation(FederatedService& fed,
                                    const check::CheckOptions& options = {});

}  // namespace sparcle::federation
