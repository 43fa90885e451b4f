#pragma once

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "energy/energy_model.hpp"
#include "model/application.hpp"
#include "model/ids.hpp"
#include "model/network.hpp"
#include "model/task_graph.hpp"

/// \file policy.hpp
/// Swappable scheduling policies (docs/policies.md).  The scheduler used
/// to hard-code one dynamic-ranking greedy rule at each of its three
/// decision points; this module extracts them behind one interface so the
/// tournament harness (sparcle_soak, tools/soak.sh) can race alternatives
/// over adversarial workload matrices:
///
///   1. *admission ordering* — the key that orders a queued application
///      (the soak runner's pending queue and service::SchedulerService's
///      request queue, both AdmissionQueue; the default key is FIFO);
///   2. *candidate ranking* — which (CT, best host) candidate the
///      dynamic-ranking greedy of Algorithm 2 commits each round
///      (SparcleAssignerOptions::policy);
///   3. *repair ordering* — the order Scheduler::repair() restores the
///      applications hurt by a failure (SchedulerOptions::policy).
///
/// Every policy must be deterministic: identical inputs produce identical
/// choices (ties break on the lowest index), so soak failures replay from
/// a seed and the property tests can demand bit-identical placements.
/// A null policy means DefaultPolicy: every consumer resolves nullptr to
/// one shared instance (or_default()), so each rule has exactly one
/// implementation.

namespace sparcle::policy {

/// One evaluated (CT, best host) pair of a dynamic-ranking round: `gamma`
/// is the eq. (2) bottleneck-rate estimate of placing `ct` on `host`.
struct CtCandidate {
  CtId ct{kInvalidId};
  NcpId host{kInvalidId};
  double gamma{0.0};
};

/// Read-only context of one candidate-ranking round.
struct SelectContext {
  const Network* net{nullptr};
  const TaskGraph* graph{nullptr};
  /// Direction of the enclosing ranking pass (see
  /// SparcleAssignerOptions::Ranking): true = the Algorithm 2 listing
  /// (commit the most constrained CT, argmin γ), false = the §IV-B prose
  /// (argmax).  The default policy honors it; alternatives may ignore it.
  bool most_constrained_pass{true};
  /// Committed host per CT so far (kInvalidId = unplaced), indexed by
  /// CtId.  Lets policies reason about consolidation and locality.
  const std::vector<NcpId>* ct_host{nullptr};
};

/// One application joining an admission queue: the features decision
/// point 1 keys it on.
struct PendingApp {
  const Application* app{nullptr};
  /// Absolute deadline, in the queue's clock seconds, after which
  /// admission is useless (the soak queue reneges expired entries);
  /// +infinity = patient.
  double deadline{std::numeric_limits<double>::infinity()};
  double size{0.0};  ///< Σ CT requirements, resource 0 (computation)
  double bits{0.0};  ///< Σ TT bits per data unit (radio/transport cost)
};

/// `app` with `deadline` and the size and bits of its task graph (both 0
/// when it has none).
PendingApp pending_app(const Application& app, double deadline);

/// One application a repair pass must restore.
struct RepairCandidate {
  const Application* app{nullptr};
  double allocated_rate{0.0};  ///< rate still carried after shedding
  std::size_t alive_paths{0};  ///< paths that survived the failure
  double size{0.0};            ///< Σ CT requirements, resource 0
};

/// The swappable scheduling policy.  The base-class implementations ARE
/// the default rules, so `class MyPolicy : public SchedulingPolicy`
/// overrides only the decision points it cares about.
/// Implementations must be deterministic, stateless across calls (one
/// policy object may be shared by schedulers on different threads), and
/// must return in-range indices.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  /// Registry identifier ("default", "sjf", "deadline", "energy", ...).
  virtual std::string name() const = 0;

  /// Decision point 1 — admission ordering: the key of an application
  /// joining an admission queue, computed once.  Queues admit the least
  /// key first and equal keys in arrival order; a NaN key orders as +∞
  /// (queue_order()).  Base rule: 0 for every application, i.e. FIFO.
  virtual double admission_key(const PendingApp& pending) const;

  /// Decision point 2 — candidate ranking: index of the candidate to
  /// commit this round.  `candidates` is in CT-id order and non-empty.
  /// Base rule: the paper's greedy — argmin γ in a most-constrained pass,
  /// argmax otherwise, first (lowest CT id) on ties.
  virtual std::size_t select_ct(const SelectContext& ctx,
                                const std::vector<CtCandidate>& candidates)
      const;

  /// Decision point 3 — repair ordering: strict-weak-order comparator,
  /// true when `a` must be restored before `b`.  Callers stable_sort, so
  /// equivalent candidates keep placed order.  Base rule: GR before BE,
  /// GR by descending guarantee, BE by descending priority.
  virtual bool repair_before(const RepairCandidate& a,
                             const RepairCandidate& b) const;
};

/// "default" — the paper's rules: FIFO admission, the dynamic-ranking
/// greedy commit rule, GR-first largest-guarantee repair.  A null policy
/// means this one (or_default()).
class DefaultPolicy : public SchedulingPolicy {
 public:
  std::string name() const override { return "default"; }
};

/// `p`, or the one shared DefaultPolicy instance when `p` is null.  Every
/// consumer resolves its policy pointer here, so a null policy means
/// DefaultPolicy everywhere.
const SchedulingPolicy& or_default(const SchedulingPolicy* p);
std::shared_ptr<const SchedulingPolicy> or_default(
    std::shared_ptr<const SchedulingPolicy> p);

/// "sjf" — shortest-job-first: admits the smallest queued application
/// (Σ CT computation requirement) first, and repairs cheap applications
/// first within each QoE class (GR still precedes BE — guarantees are
/// contractual).  Wins admission *count* under heavy-tailed sizes and
/// flash crowds, where one elephant at the queue head starves mice.
class ShortestJobFirstPolicy : public SchedulingPolicy {
 public:
  std::string name() const override { return "sjf"; }
  double admission_key(const PendingApp& pending) const override;
  bool repair_before(const RepairCandidate& a,
                     const RepairCandidate& b) const override;
};

/// "deadline" — deadline/latency-aware: earliest-deadline-first admission
/// (queued applications whose patience is about to lapse go first), and
/// most-degraded-first repair (largest GR shortfall, then BE apps with no
/// alive path).  Wins admitted fraction when queues build and entries
/// renege — flash crowds, diurnal peaks.
class DeadlineAwarePolicy : public SchedulingPolicy {
 public:
  std::string name() const override { return "deadline"; }
  double admission_key(const PendingApp& pending) const override;
  bool repair_before(const RepairCandidate& a,
                     const RepairCandidate& b) const override;
};

/// "energy" — energy-aware (src/energy device model): ranks assignment
/// candidates by estimated rate per incremental watt — a host that
/// already runs a CT charges no extra idle power, so the policy
/// consolidates — and admits the least radio-hungry queued application
/// (Σ TT bits) first.  Trades bottleneck rate for data-per-Joule; wins
/// the energy column of the tournament report.
class EnergyAwarePolicy : public SchedulingPolicy {
 public:
  EnergyAwarePolicy() = default;
  explicit EnergyAwarePolicy(DevicePowerProfile profile)
      : profile_(profile) {}
  std::string name() const override { return "energy"; }
  double admission_key(const PendingApp& pending) const override;
  std::size_t select_ct(const SelectContext& ctx,
                        const std::vector<CtCandidate>& candidates)
      const override;

 private:
  DevicePowerProfile profile_{};
};

/// Where a queued application stands in decision point 1's order: its
/// queue class (lower first; the soak queue has one), then its key.
using QueueOrder = std::pair<std::size_t, double>;

/// `pending`'s order in class `cls` under `policy`: its admission key,
/// with NaN as +∞ so that orders compare as a strict weak order.
QueueOrder queue_order(const SchedulingPolicy& policy,
                       const PendingApp& pending, std::size_t cls = 0);

/// An admission queue: least QueueOrder first.  std::multimap inserts an
/// equal key after the ones already there, so ties pop in arrival order.
template <class T>
using AdmissionQueue = std::multimap<QueueOrder, T>;

/// Names of every registered policy, in tournament order ("default"
/// first).
std::vector<std::string> policy_names();

/// Builds a policy by registry name; throws std::invalid_argument on an
/// unknown name (the message lists the known ones).
std::unique_ptr<SchedulingPolicy> make_policy(const std::string& name);

}  // namespace sparcle::policy
