#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "check/invariants.hpp"
#include "check/oracles.hpp"
#include "core/assignment.hpp"
#include "workload/rng.hpp"
#include "workload/scenario_io.hpp"

/// \file fuzzer.hpp
/// The shrinking scenario fuzzer: seeded random scenarios are driven
/// through the full Scheduler pipeline (submit / fail / repair / recover
/// / remove, plus a generated churn trace through the injector) with
/// check_scheduler_state after every mutation, and
/// through the differential + metamorphic oracles where they are sound.
/// Any failure is greedily minimized — drop applications, NCPs, links and
/// CTs, round numbers — while it keeps reproducing the *same* violation
/// (same phase, same leading invariant code), and the minimized scenario
/// is serialized through scenario_io as a `.scn` repro anyone can replay
/// with `sparcle_cli --validate`.

namespace sparcle::check {

/// Builds a fresh Assigner per scheduler/oracle run.  An empty factory
/// means SPARCLE's own assigner; tests inject deliberately broken ones.
using AssignerFactory = std::function<std::unique_ptr<Assigner>()>;

struct FuzzOptions {
  /// Base seed; iteration i fuzzes scenario seed `seed ^ splitmix(i)`.
  std::uint64_t seed{1};
  std::size_t iterations{200};
  /// Generated network / workload size caps.
  std::size_t max_ncps{6};
  std::size_t max_apps{4};
  /// Run the differential + metamorphic oracles (on the instances where
  /// each is sound; see oracles.hpp).
  bool run_oracles{true};
  /// Every k-th iteration generates a fully-pinned tree scenario for the
  /// Thm 3 arrival-order oracle instead of a general one (0 = never).
  std::size_t arrival_order_every{4};
  /// Cap on generated churn-trace events replayed through the incremental
  /// repair path per scenario, with the full invariant suite after every
  /// event (0 = skip the churn phase).
  std::size_t churn_events{8};
  /// Scheduling-policy plugin (policy::make_policy name) installed for
  /// the scheduler-pipeline phase of run_scenario_checks; "" installs
  /// none, which means the default policy.  The optimality oracles always
  /// run the default algorithm — invariants must hold under ANY policy,
  /// but optimality claims are the default's alone.
  std::string policy{};
  /// Policy axis: when non-empty, fuzz_scheduler draws one of these
  /// names per iteration (from a stream independent of the scenario
  /// stream, so adding the axis does not reshuffle generated scenarios)
  /// and records it in FuzzFailure::policy and the `# policy:` header of
  /// the saved repro.
  std::vector<std::string> policies{};
  /// Where shrunk `.scn` repros are written ("" = don't write).
  std::string repro_dir{"."};
  /// Cap on candidate evaluations during shrinking.
  std::size_t shrink_budget{400};
  CheckOptions check{};
  OracleOptions oracle{};
};

/// A random valid scenario: a connected network (random tree plus chords,
/// occasionally directed, with failure probabilities) and 1..max_apps
/// BE/GR applications with chain/diamond/layered task graphs, sources and
/// sinks pinned.
workload::ScenarioFile random_scenario(Rng& rng, const FuzzOptions& options);

/// A scenario on which Thm 3 is deterministic: undirected tree topology
/// (unique routes) and Best-Effort applications with *every* CT pinned.
workload::ScenarioFile random_pinned_tree_scenario(Rng& rng,
                                                   const FuzzOptions& options);

/// The verdict of one scenario run.  `phase` identifies which harness
/// stage tripped: "scheduler", "churn", "oracle:differential",
/// "oracle:monotonicity", "oracle:scaling", "oracle:unused-removal",
/// "oracle:arrival-order".
struct ScenarioVerdict {
  std::string phase;
  CheckReport report;
  bool failed() const { return !report.ok(); }
};

/// Drives one scenario through the scheduler pipeline (checking state
/// after every mutating call) and the applicable oracles; returns the
/// first failure.  Deterministic per scenario, so the shrinker can use it
/// as the reproduction predicate.
ScenarioVerdict run_scenario_checks(const workload::ScenarioFile& scenario,
                                    const AssignerFactory& factory,
                                    const FuzzOptions& options);

/// Greedy shrink: repeatedly applies the smallest-first reductions that
/// keep `original`'s failure signature reproducing, until a fixpoint or
/// the shrink budget is exhausted.  Returns the minimized scenario.
workload::ScenarioFile shrink_failure(const workload::ScenarioFile& scenario,
                                      const AssignerFactory& factory,
                                      const FuzzOptions& options,
                                      const ScenarioVerdict& original);

/// Serializes `scenario` to `<dir>/sparcle-fuzz-repro-<seed>.scn`; a
/// non-empty `policy` is recorded as a `# policy: <name>` header comment
/// so the repro replays under the same plugin.  Returns the path, or ""
/// when dir is empty or the write failed.
std::string save_repro(const workload::ScenarioFile& scenario,
                       const std::string& dir, std::uint64_t seed,
                       const std::string& policy = {});

/// One minimized failure.
struct FuzzFailure {
  std::size_t iteration{0};
  std::uint64_t scenario_seed{0};
  std::string policy;  ///< plugin active at failure ("" = default)
  std::string phase;
  CheckReport report;
  workload::ScenarioFile scenario;  ///< as generated
  workload::ScenarioFile shrunk;    ///< after greedy minimization
  std::string repro_path;           ///< written .scn ("" if not written)
};

struct FuzzOutcome {
  std::size_t iterations_run{0};
  std::optional<FuzzFailure> failure;
};

/// The top-level loop: `iterations` seeded scenarios through
/// run_scenario_checks; stops at the first failure, shrinks it and writes
/// the repro.
FuzzOutcome fuzz_scheduler(const FuzzOptions& options,
                           const AssignerFactory& factory = {});

}  // namespace sparcle::check
