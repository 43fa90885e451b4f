#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/assignment.hpp"
#include "core/fairness.hpp"
#include "core/provisioning.hpp"
#include "core/sparcle_assigner.hpp"
#include "model/application.hpp"
#include "model/capacity.hpp"
#include "model/network.hpp"
#include "model/placement.hpp"

/// \file scheduler.hpp
/// The complete SPARCLE system of Fig. 3: applications arrive over time and
/// are admitted (with one or more task-assignment paths) or rejected.
///
/// Best-Effort flow:  predict per-element capacities from priorities
/// (eq. (6)) → run the task-assignment algorithm → add paths until the
/// requested availability is met → re-solve the proportional-fair
/// allocation (4) across all placed BE applications.
///
/// Guaranteed-Rate flow:  iteratively find paths on residual capacities,
/// evaluate the min-rate availability via subset-sum + eq. (7), and admit
/// (permanently reserving the paths' resources) once the requested QoE is
/// met — otherwise reject without mutating any state.

namespace sparcle {

/// A placed application and its allocation.
struct PlacedApp {
  Application app;              ///< the admitted request
  std::vector<PathInfo> paths;  ///< its committed task-assignment paths
  /// Total allocated processing rate: the PF solution for BE apps (updated
  /// on every admission), the reserved rate for GR apps.
  double allocated_rate{0.0};
  /// Per-path allocated rates, aligned with `paths`.
  std::vector<double> path_rates;
};

/// Outcome of a submit() call.
struct AdmissionResult {
  bool admitted{false};       ///< the application was placed
  std::string reason;         ///< human-readable rejection reason
  std::size_t path_count{0};  ///< committed task-assignment paths
  double rate{0.0};          ///< allocated (GR: reserved) total rate
  double availability{0.0};  ///< achieved (min-rate) availability estimate
};

/// Configuration of the admission-control scheduler.
struct SchedulerOptions {
  /// Cap on task-assignment paths per application.
  std::size_t max_paths{4};
  /// Apply the eq. (6) priority prediction before BE assignment (ablation
  /// switch; the paper's system always predicts).
  bool use_prediction{true};
  /// How additional paths are searched (§IV-D residual loop, or the
  /// overlap-penalizing diversity extension — see provisioning.hpp).
  PathDiversity path_diversity{PathDiversity::kResidualOnly};
  /// Capacity multiplier for already-used elements in kPenalizeOverlap
  /// diversity mode (see ProvisioningOptions::overlap_penalty).
  double overlap_penalty{0.3};
  /// Options forwarded to the default SPARCLE assigner.
  SparcleAssignerOptions assigner_options{};
  /// Scheduling-policy plugin (docs/policies.md): decision point 2
  /// (candidate ranking — forwarded into the default assigner's options
  /// when assigner_options.policy is unset) and decision point 3 (the
  /// restore order of repair()).  A null policy means
  /// policy::DefaultPolicy (policy::or_default()).  Shared ownership:
  /// copies of these options keep the plugin alive for the scheduler's
  /// lifetime.
  std::shared_ptr<const policy::SchedulingPolicy> policy{};

  /// assigner_options with `policy` forwarded when assigner_options.policy
  /// is unset: what the default SPARCLE assigner and the federation's
  /// cross-shard planner run with.  The raw pointer stays valid while a
  /// copy of these options, which shares ownership of the policy, lives.
  SparcleAssignerOptions assigner_options_with_policy() const;
};

/// The admission-control scheduler.  Thread-compatible (external
/// synchronization required for concurrent use).
class Scheduler {
 public:
  /// Uses SPARCLE's own assignment algorithm.
  explicit Scheduler(Network net, SchedulerOptions options = {});

  /// Uses a caller-supplied assignment algorithm (lets the multi-app
  /// benchmarks drive the identical admission pipeline with baselines).
  Scheduler(Network net, std::unique_ptr<Assigner> assigner,
            SchedulerOptions options = {});

  /// Admits or rejects one arriving application.
  AdmissionResult submit(const Application& app);

  /// Outcome of an end_batch() call (see begin_batch()).
  struct BatchReport {
    /// Weighted-PF re-solves that were coalesced into the single solve at
    /// batch end (each would have run separately outside a batch).
    std::size_t deferred_resolves{0};
    /// Best-Effort applications admitted during the batch that had to be
    /// evicted because the final PF solve failed (the per-call equivalent
    /// of the "resource allocation failed" rejection).  Rare: the solver
    /// only fails on numerically degenerate instances.
    std::vector<std::string> evicted;
  };

  /// Opens a batch: until the matching end_batch(), submit() and remove()
  /// defer the weighted proportional-fair re-solve of problem (4) and the
  /// validation hook, so a burst of admissions pays for ONE re-solve
  /// instead of one per call.  Admission *decisions* are unaffected (they
  /// depend on residual capacities and the eq. (6) prediction, both kept
  /// current mid-batch) — but AdmissionResult::rate for Best-Effort apps
  /// admitted mid-batch reads 0 until end_batch() publishes the solved
  /// allocation (read it back via placed()).  The batched admission path
  /// of service::SchedulerService is the production consumer.  Throws
  /// std::logic_error if a batch is already open.  Control functions run
  /// inside a batch too: SchedulerService::apply() runs them between
  /// begin_batch() and end_batch(), and the federation drives each
  /// shard's mark_failed(), mark_recovered() and repair() that way.
  /// mark_failed() and mark_recovered() defer their re-solve like
  /// remove(); repair() runs its own.  Only
  /// global_reoptimize() must not be called inside a batch: its trial
  /// re-admissions would compare utilities of unsolved rates.
  void begin_batch();

  /// Closes the batch opened by begin_batch(): runs the single deferred
  /// PF re-solve (evicting batch-admitted BE apps, newest first, in the
  /// unlikely case the solve fails) and runs the validation hook once on
  /// the settled state.  Throws std::logic_error if no batch is open.
  BatchReport end_batch();

  /// True between begin_batch() and end_batch().
  bool in_batch() const { return batch_active_; }

  /// Removes a placed application (it finished or departed).  GR
  /// reservations are released and the Best-Effort allocation is re-solved
  /// over the survivors.  Returns false if no app with that name is placed.
  bool remove(const std::string& app_name);

  /// Marks a network element failed: its capacity drops to zero for all
  /// future assignment and allocation decisions, BE paths crossing it stop
  /// receiving rate (the PF solve is re-run), and GR applications whose
  /// surviving paths no longer reach their minimum rate show up in
  /// degraded_gr_apps().  Models the network dynamics of §III-B; idempotent.
  void mark_failed(ElementKey element);

  /// Clears a previous mark_failed(); re-solves the BE allocation.
  void mark_recovered(ElementKey element);

  /// Names of GR applications whose currently-alive paths sum below their
  /// guaranteed minimum rate (given the marked failures).
  std::vector<std::string> degraded_gr_apps() const;

  /// Outcome of a repair() pass.
  struct RepairReport {
    /// Apps brought back to their target (GR: guarantee restored, possibly
    /// after retries; BE: re-provisioned up to its availability target).
    std::vector<std::string> repaired;
    /// GR apps still below their guarantee, and BE apps still below their
    /// availability target (no path left included), after the pass.
    std::vector<std::string> still_degraded;
    /// Size of the repair working set: apps whose paths cross the trigger
    /// or any failed element, plus GR apps below their guarantee and BE
    /// apps whose alive paths miss their availability target (everything
    /// else was left untouched).
    std::size_t apps_touched{0};
    std::size_t paths_dropped{0};  ///< dead paths shed across all apps
    std::size_t paths_added{0};    ///< replacement paths committed
    std::size_t retries{0};        ///< backoff retries spent on GR restores
  };

  /// Failure repair — the "network resource fluctuation" the paper
  /// defers to future work.  Instead of walking every placed application,
  /// repair() consults a reverse `element → {app, path}` usage index and
  /// touches only the applications whose task-assignment paths actually
  /// cross a currently-failed element, plus those still degraded by
  /// earlier events:
  ///
  ///  1. dead paths are shed and their GR reservations released;
  ///  2. GR apps are re-provisioned first (largest guarantee first) on the
  ///     residual capacities, with retry-and-backoff (two retries, each
  ///     asking for half the previous target) accepting a partial
  ///     restore when the full shortfall is not placeable;
  ///  3. BE apps shed dead paths gracefully — they are never evicted —
  ///     and are re-provisioned (against the eq. (6) predicted capacities,
  ///     with admission's stop rule) when their alive paths miss their
  ///     availability target;
  ///  4. one Best-Effort PF re-solve finishes the pass.
  ///
  /// Afterwards no placed path touches a failed element: replacements are
  /// provisioned around every failed element, never through one.
  ///
  /// `element` names the element whose failure triggered the pass (used
  /// for the decision log); the pass repairs damage from *all* currently
  /// failed elements.  Typical call pattern: `mark_failed(e); repair(e);`
  /// — sim::ChurnInjector automates it.  Deterministic for identical
  /// call sequences.
  RepairReport repair(ElementKey element);

  /// Outcome of a global_reoptimize() attempt.
  struct ReoptimizeReport {
    bool adopted{false};           ///< the new plan replaced the old one
    double old_be_utility{0.0};    ///< BE utility before
    double new_be_utility{0.0};    ///< BE utility of the candidate plan
    double old_gr_rate{0.0};       ///< total GR rate before
    double new_gr_rate{0.0};       ///< total GR rate of the candidate plan
    /// CTs whose host changed between the old and new first paths.
    std::size_t migrated_cts{0};
  };

  /// What-if global re-optimization (extension): replace every placed
  /// application from scratch — GR apps first (largest guarantee first),
  /// then BE apps in descending priority — and adopt the new plan only if
  /// every app is still admitted, no guaranteed rate shrinks, and the BE
  /// utility improves by at least `min_utility_gain`; otherwise the
  /// current state is restored untouched.  The paper freezes placements
  /// because migration is costly (§IV intro); the report's migrated_cts
  /// counts that cost so operators can weigh it.
  ReoptimizeReport global_reoptimize(double min_utility_gain = 0.0);

  /// A capacity reservation held by an external owner (the federation
  /// layer's cross-shard admission, src/federation): `load` is pinned on
  /// this scheduler's elements exactly like a GR reservation, but the
  /// owning application is placed *outside* this scheduler, so nothing
  /// shows up in placed().
  struct ExternalReservation {
    LoadMap load;                      ///< held load, this net's shape
    std::vector<ElementKey> elements;  ///< distinct elements `load` touches
  };

  /// Atomically holds `load` on this scheduler's residual capacities
  /// under `name` — the per-shard half of a cross-shard admission.
  /// Fails without mutating anything — filling `why` when non-null — if a
  /// reservation with that name already exists, any touched element is
  /// marked failed, or the request does not fit the current residual
  /// (after GR and prior external reservations).  On success the capacity
  /// is held (invisible to later submits and the BE allocation) until
  /// release_external(); the BE PF allocation is re-solved when a touched
  /// element carries Best-Effort paths.  An element that fails after the
  /// hold was taken is ordinary churn: the hold stays until released.
  bool reserve_external(const std::string& name, const LoadMap& load,
                        std::vector<ElementKey> elements,
                        std::string* why = nullptr);

  /// Releases reservation `name`: returns its capacity to the residual
  /// and re-solves the BE allocation when a touched element carries BE
  /// paths.  The abort path of a refused cross-shard admission and the
  /// removal path of an admitted one both land here.  Returns false
  /// (no-op) for an unknown name; always leak-free — the invariant
  /// checker proves residual == capacity − GR − external after any
  /// reserve/release interleaving.
  bool release_external(const std::string& name);

  /// Current external reservations by name (deterministic order).
  const std::map<std::string, ExternalReservation>& external_reservations()
      const {
    return external_;
  }

  /// The (copied-in) network this scheduler manages.
  const Network& network() const { return net_; }
  /// All currently placed applications, in admission order.
  const std::vector<PlacedApp>& placed() const { return placed_; }

  /// Elements currently marked failed (capacity zero; see mark_failed()).
  const std::set<ElementKey>& failed_elements() const { return failed_; }

  /// Process-global self-validation hook, run after every mutating
  /// operation (submit / remove / mark_failed / mark_recovered / repair /
  /// global_reoptimize) with the post-operation state.  Installed by the
  /// correctness harness (`check::ScopedValidation`, src/check) so debug
  /// builds and fuzz tests validate every intermediate state; pass nullptr
  /// to uninstall.  The hook may throw to fail the operation loudly; it
  /// must not mutate the scheduler.  Not thread-safe against concurrent
  /// scheduler use (the Scheduler itself is thread-compatible only).
  using ValidationHook = std::function<void(const Scheduler&)>;
  /// Installs (or, with nullptr, removes) the process-global hook.
  static void set_validation_hook(ValidationHook hook);

  /// Residual capacities after all GR reservations and marked failures
  /// (BE apps do not reserve).
  const CapacitySnapshot& gr_residual_capacities() const { return residual_; }

  /// Σ P_i log(x_i) over placed BE applications under the current
  /// allocation; -inf if any BE app currently has rate 0.
  double be_utility() const;

  /// Total reserved rate over admitted GR applications.
  double total_gr_rate() const;

  /// Total allocated rate over placed BE applications.
  double total_be_rate() const;

  /// The reverse `element → {app, path}` usage index over the current
  /// placed paths (rebuilt lazily after mutations that reshuffle path
  /// indices).  Exposed for tests and diagnostics; repair() is the
  /// production consumer.
  const ElementUsageIndex& element_usage() const;

  /// Cumulative weighted-PF solver telemetry, mirroring the
  /// `scheduler.solver.*` metrics (docs/observability.md) for callers
  /// without a metrics registry installed (tests, service stats).
  struct PfSolverStats {
    std::uint64_t solves{0};        ///< PF solves actually run
    std::uint64_t newton_iters{0};  ///< interior-point iterations, all solves
    int last_newton_iters{0};       ///< iterations of the latest solve
  };
  /// Telemetry of the PF re-solves this scheduler has run.
  const PfSolverStats& pf_solver_stats() const { return solver_stats_; }

 private:
  AdmissionResult submit_best_effort(const Application& app);
  AdmissionResult submit_guaranteed_rate(const Application& app);

  /// Finds up to `max_paths` paths for `app` on top of `start` capacities,
  /// stopping early when `enough(paths)` returns true (delegates to
  /// provision_paths with this scheduler's diversity options).
  std::vector<PathInfo> find_paths(const Application& app,
                                   const CapacitySnapshot& start,
                                   double rate_cap,
                                   const StopPredicate& enough) const;

  /// Re-solves problem (4) over all placed BE applications and updates
  /// their allocated rates.  Returns false if the solve failed.
  bool reallocate_best_effort();

  /// reallocate_best_effort(), unless a batch is open — then the re-solve
  /// is deferred to end_batch() and this reports success.
  bool maybe_reallocate();

  /// Recomputes residual_ = full capacities - GR reservations, with the
  /// failed elements zeroed.
  void rebuild_residual();

  /// Recomputes residual_ for one element from net_ capacity minus the
  /// accumulated gr_reserved_ (zero if failed) — the O(1) building block
  /// of the incremental residual bookkeeping.  Produces exactly the value
  /// a full rebuild_residual() would, and patches the prediction scratch
  /// when it is live.
  void recompute_residual_element(const ElementKey& e);

  /// Applies a GR reservation change of one path (`rate_delta` > 0
  /// reserves, < 0 releases): updates gr_reserved_ and refreshes residual_
  /// on the path's own elements only.
  void apply_gr_delta(const PathInfo& path, double rate_delta);

  /// True when any placed Best-Effort path crosses `e` — the condition
  /// under which a failure/recovery of `e` changes the PF problem (4) and
  /// a re-solve is actually needed.
  bool element_touches_be(const ElementKey& e) const;

  /// Rebuilds be_competing_ from placed_ when a mutation invalidated it.
  void ensure_competing_index() const;

  /// Adds a placed BE app's distinct element footprint to be_competing_
  /// (no-op while the index is invalid or for GR apps).
  void competing_add_app(const PlacedApp& pa) const;

  /// eq. (6) effective capacities for an arriving (or re-provisioned) BE
  /// app with `priority`: the prediction scratch, restored to residual_ on
  /// the previously-scaled elements and re-scaled by the current
  /// competing-priority totals.  Valid until the next scheduler mutation.
  const CapacitySnapshot& predicted_capacities(double priority) const;

  /// True when every element the path touches is currently alive.
  bool path_alive(const PathInfo& path) const;
  /// True when BE app `pa`, whose paths are all alive, has none or their
  /// availability_any misses its availability target.
  bool be_below_target(const PlacedApp& pa) const;

  /// Runs the installed validation hook (if any) on *this.
  void run_validation_hook() const;

  /// Rebuilds usage_ from placed_ when a mutation invalidated it.
  void ensure_usage_index() const;

  /// Registers the freshly admitted app at the back of placed_ in the
  /// usage index (cheap incremental update on the churn hot path).
  void index_new_app();

  Network net_;
  SchedulerOptions options_;
  std::unique_ptr<Assigner> assigner_;
  LoadMap gr_reserved_;        ///< Σ over GR paths of rate * per-unit load
  LoadMap ext_reserved_;       ///< Σ over external reservations, likewise
  std::map<std::string, ExternalReservation> external_;
  std::set<ElementKey> failed_;
  CapacitySnapshot residual_;  ///< see rebuild_residual()
  std::vector<PlacedApp> placed_;
  /// Reverse element → {app, path} index over placed_ (lazily rebuilt;
  /// mutable so const accessors can refresh it).
  mutable ElementUsageIndex usage_;
  mutable bool usage_valid_{false};
  /// eq. (6) prediction cache: per-element Σ priority over placed BE apps
  /// (lazily rebuilt like usage_, extended incrementally on admission) ...
  mutable std::unordered_map<ElementKey, double> be_competing_;
  mutable bool competing_valid_{false};
  /// ... and a scratch snapshot that diverges from residual_ only on
  /// predict_touched_, so each prediction restores + re-scales a handful
  /// of elements instead of copying the whole network.
  mutable CapacitySnapshot predict_scratch_;
  mutable std::vector<ElementKey> predict_touched_;
  mutable bool predict_scratch_valid_{false};
  PfSolverStats solver_stats_;
  bool batch_active_{false};  ///< between begin_batch() and end_batch()
  bool batch_dirty_{false};   ///< a PF re-solve was deferred this batch
  std::size_t batch_deferred_{0};  ///< re-solves coalesced this batch
  /// BE apps admitted during the open batch, in admission order (eviction
  /// candidates if the final PF solve fails).
  std::vector<std::string> batch_added_be_;
};

}  // namespace sparcle
