#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/provisioning.hpp"
#include "core/scheduler.hpp"
#include "core/sparcle_assigner.hpp"
#include "federation/shard_plan.hpp"
#include "model/application.hpp"
#include "model/capacity.hpp"
#include "model/network.hpp"
#include "model/placement.hpp"
#include "obs/metrics.hpp"
#include "service/scheduler_service.hpp"

/// \file federation.hpp
/// Federated placement: one site partitioned into regional scheduler
/// shards, each served by its own service::SchedulerService, with a
/// routing-and-admission layer on top (docs/federation.md).
///
/// The scaling problem: a single global Scheduler serializes every
/// admission through one proportional-fair re-solve over the whole site,
/// so admission throughput *falls* as the site grows.  The federation
/// splits the site along region labels (ShardPlan), runs the unchanged
/// per-shard admission pipeline concurrently, and pays a coordination
/// protocol only for the (rare, locality-dependent) arrivals whose pinned
/// sources and sinks span shards:
///
///   - shard-local arrivals are routed straight to their home shard and
///     admitted by the stock pipeline — no cross-shard synchronization;
///   - cross-shard arrivals are planned optimistically by the federation
///     router against its own residual snapshot of the *whole* site
///     (boundary links included — no shard owns those), then admitted in
///     one reserve round: every touched shard takes an atomic capacity
///     hold (Scheduler::reserve_external, validated against the shard's
///     authoritative residual), and the app is admitted once *all*
///     shards accepted — any refusal releases every hold, leaving no
///     residue (the per-shard invariant checker plus the federation
///     conservation check in federation/check.hpp prove it).

namespace sparcle::federation {

/// Tuning knobs of the federated placement layer.
struct FederationOptions {
  /// Number of regional shards (ShardPlan is built with make_shard_plan:
  /// region labels when present, balanced graph cut otherwise).  1 is the
  /// degenerate single-scheduler federation (useful as a baseline).
  std::size_t shards{2};
  /// Options for every per-shard Scheduler (policy plugin included; the
  /// router's cross-shard planner ranks by the same policy).
  SchedulerOptions scheduler{};
  /// Options for every per-shard SchedulerService.
  service::ServiceOptions service{};
};

/// One committed cross-shard application, in federation (full-network)
/// coordinates.  The per-shard fragments of `load` are held as external
/// reservations named after the app inside each touched shard.
struct CrossApp {
  Application app;                 ///< the admitted request (global pins)
  std::vector<PathInfo> paths;     ///< committed paths on the full network
  std::vector<double> path_rates;  ///< committed rate per path
  double total_rate{0.0};          ///< Σ path_rates
  double availability{0.0};        ///< achieved availability estimate
  std::vector<std::size_t> shards;      ///< touched shard indices, ascending
  LoadMap load;                    ///< Σ_k path_rates[k] · paths[k].load
  std::vector<ElementKey> elements;     ///< distinct global elements of load
};

/// The federated placement service: service::PlacementService over
/// regional shards.  All public methods are thread-safe.  Construction
/// spawns one SchedulerService per shard plus one federation router
/// thread; destruction stops all of them.
class FederatedService : public service::PlacementService {
 public:
  /// Partitions `net` into options.shards regional shards and starts a
  /// SchedulerService on each.  Throws std::invalid_argument on an
  /// impossible partition (see make_shard_plan).
  explicit FederatedService(Network net, FederationOptions options = {});
  ~FederatedService() override;

  FederatedService(const FederatedService&) = delete;
  FederatedService& operator=(const FederatedService&) = delete;

  // --- service::PlacementService ---
  void submit_async(Application app, Completion on_done) override;
  void remove_async(std::string app_name, Completion on_done) override;
  /// Aggregated view: every shard's placed apps (admission order within a
  /// shard) followed by the committed cross-shard apps; version is the sum
  /// of shard versions plus the federation's own mutation counter.
  std::shared_ptr<const service::ServiceSnapshot> snapshot() const override;
  /// Blocks until the router queue is empty and every shard drained.
  void drain() override;
  /// Stops the router, then every shard.  Idempotent.
  void stop() override;
  /// Shard counters summed, plus the federation's own `federation.*`
  /// instruments merged into ServiceStats::metrics.
  service::ServiceStats stats() const override;
  obs::MetricsRegistry& registry() override { return registry_; }
  const obs::MetricsRegistry& registry() const override { return registry_; }
  /// Federation registry plus the per-shard registries summed by
  /// instrument name, rendered as one exposition.
  std::string prometheus_text() const override;
  std::map<std::string, std::string> health_fields() const override;
  /// The full site network (not one shard).
  const Network& network() const override { return net_; }

  // --- federation surface ---
  /// The immutable partition this service runs on.
  const ShardPlan& plan() const { return plan_; }
  std::size_t shard_count() const { return shards_.size(); }
  /// Shard `s`'s admission service (tests drive inspect() through this).
  service::SchedulerService& shard(std::size_t s) { return *shards_.at(s); }
  const service::SchedulerService& shard(std::size_t s) const {
    return *shards_.at(s);
  }

  /// Copy of the committed cross-shard app table (name → CrossApp).
  std::map<std::string, CrossApp> cross_apps() const;
  /// Copy of the federation planning residual: full capacities minus the
  /// committed cross-shard loads, failed elements zeroed.  Optimistic —
  /// shard-internal GR load is invisible here by design (the reserve
  /// round is the authoritative check); boundary links are exact.
  CapacitySnapshot plan_residual() const;
  /// Elements currently failed from the federation's point of view
  /// (everything injected through mark_failed, boundary links included).
  std::set<ElementKey> failed_elements() const;

  /// Fails element `e` (global id): forwarded to the owning shard's
  /// scheduler (blocking until applied); boundary links are federation-
  /// owned and only update the planning residual.  Idempotent.
  void mark_failed(ElementKey e);
  /// Clears a mark_failed; same routing.
  void mark_recovered(ElementKey e);
  /// Runs the owning shard's incremental repair pass for `e` (no-op for
  /// boundary links — cross-shard apps hold fixed reservations that are
  /// never re-provisioned; remove and resubmit to re-route them).
  void repair(ElementKey e);

 private:
  /// Per-shard slice of one cross-shard app's load, in shard-local ids.
  struct Fragment {
    LoadMap load;                      ///< shard-net shape, rate-scaled
    std::vector<ElementKey> elements;  ///< distinct local elements
  };

  /// The union sub-network of one touched-shard set: those shards' NCPs,
  /// their intra-shard links, and every boundary link with both endpoints
  /// inside the union.  Cross-shard planning provisions on this instead
  /// of the full site, so the router's cost scales with the regions an
  /// app actually spans rather than the whole federation — on a 2048-NCP
  /// site a two-region app plans on a 128-node graph.
  struct UnionSubnet {
    Network net;                          ///< the induced sub-graph
    std::vector<NcpId> to_global_ncp;     ///< sub node id -> full-site id
    std::vector<LinkId> to_global_link;   ///< sub link id -> full-site id
    std::map<NcpId, NcpId> to_sub_ncp;    ///< full-site node id -> sub id
  };

  static constexpr std::size_t kCrossRoute = static_cast<std::size_t>(-1);

  /// Routes one arrival: home shard when every pin lands in one shard,
  /// otherwise a router job for the cross-shard path.  Never blocks.
  void dispatch_submit(Application app, Completion on_done);
  /// The one-round cross-shard admission (router thread).
  void cross_admit(Application app, Completion on_done);
  /// Cross-shard removal (router thread): release every hold, return the
  /// load to the planning residual.
  void cross_remove(const std::string& name, Completion on_done);
  /// Releases the named hold on the given shards, ignoring failures
  /// (unknown names are no-ops) — the abort path.
  void release_on_shards(const std::string& name,
                         const std::vector<std::size_t>& shards);
  /// Rebuilds plan_residual_ = full capacities − cross_load_, failed
  /// elements zeroed.  Caller holds cross_mu_.
  void rebuild_plan_residual();
  /// Translates an application's pinned NCPs to shard-local ids.
  Application to_local(const Application& app) const;
  /// The shard owning shard-internal element `e` (global id) and `e`'s
  /// key in that shard's own ids.  Boundary links belong to no shard.
  std::pair<std::size_t, ElementKey> to_shard(ElementKey e) const;
  /// The (lazily built, cached) union sub-network for an ascending
  /// touched-shard index set.  Router thread only — the cache is
  /// unsynchronized by design.
  const UnionSubnet& union_subnet(const std::vector<std::size_t>& shards);
  /// Ascending distinct shard indices the app's pins land in.
  std::vector<std::size_t> pinned_shards(const Application& app) const;
  void enqueue_job(std::function<void()> job);
  void router_loop();
  void bump(const char* name, std::uint64_t n = 1);
  /// Records a kFederate decision-log row when a log is installed.
  void log_decision(const std::string& app, bool guaranteed,
                    const std::string& reason, double rate,
                    double availability, std::size_t paths);
  /// Completes `on_done` with a rejection carrying `reason`.
  static void complete_rejected(const Completion& on_done,
                                const std::string& reason);
  /// Wraps a cross-request completion so the result carries the wire's
  /// request-tracing contract (trace_id / queue_us / apply_us /
  /// latency_us).  Call at job start on the router thread; `enqueued` is
  /// when the request entered the router queue.
  Completion stamp_timeline(Completion on_done,
                            std::chrono::steady_clock::time_point enqueued);

  /// Returns the heap pages a torn-down federation freed to the OS.  Each
  /// shard thread allocates from its own glibc arena, and glibc keeps a
  /// freed arena's pages mapped, so set-up after set-up would otherwise
  /// stack resident memory.  Declared first, so destroyed last: after
  /// every shard and thread has stopped and freed its state.
  struct TrimOnTeardown {
    ~TrimOnTeardown();
  };
  TrimOnTeardown trim_on_teardown_;

  Network net_;      ///< the full site
  ShardPlan plan_;   ///< immutable partition of net_
  FederationOptions options_;
  std::vector<std::unique_ptr<service::SchedulerService>> shards_;
  SparcleAssigner assigner_;  ///< assigner driving cross planning

  /// union_subnet() cache, keyed by the ascending touched-shard set.
  /// Touched only from the router thread, so no lock guards it.
  std::map<std::vector<std::size_t>, UnionSubnet> subnets_;

  obs::MetricsRegistry registry_;  ///< federation.* instruments

  /// Trace ids for requests the *federation* answers (the cross-shard
  /// path); shard-local requests carry their shard service's ids.
  std::atomic<std::uint64_t> next_trace_{1};

  /// Route table: app name → home shard index, or kCrossRoute.  Guards
  /// duplicate names across shards and directs removals.
  mutable std::mutex route_mu_;
  std::map<std::string, std::size_t> route_;

  /// Cross-shard state: committed apps, their aggregate load, the
  /// planning residual derived from it, and the failed-element set.
  mutable std::mutex cross_mu_;
  std::map<std::string, CrossApp> cross_;
  LoadMap cross_load_;
  CapacitySnapshot plan_residual_;
  std::set<ElementKey> failed_;
  std::uint64_t cross_version_{0};  ///< bumps on every cross mutation

  /// Router: one thread serializing cross-shard admissions/removals.
  mutable std::mutex router_mu_;
  std::condition_variable router_cv_;   ///< wakes the router thread
  std::condition_variable idle_cv_;     ///< wakes drain()ers
  std::deque<std::function<void()>> jobs_;
  bool router_busy_{false};
  bool stopping_{false};
  std::thread router_;  ///< last member: joins before teardown
};

}  // namespace sparcle::federation
