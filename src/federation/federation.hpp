#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
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
///   - cross-shard arrivals are planned optimistically on the scheduling
///     thread of one of their pinned shards, against the federation's
///     residual snapshot of the *whole* site (boundary links included —
///     no shard owns those), then admitted in one reserve round: every
///     touched shard takes an atomic capacity hold
///     (Scheduler::reserve_external, validated against the shard's
///     authoritative residual), and the app is admitted once *all*
///     shards accepted — any refusal releases every hold, leaving no
///     residue (the per-shard invariant checker plus the federation
///     conservation check in federation/check.hpp prove it);
///   - the router plans nothing and never waits on a shard: plans,
///     reserves and releases complete by callback, and each completion
///     posts the router job that takes the next step, so plans and
///     rounds of different apps run side by side.

namespace sparcle::federation {

/// Tuning knobs of the federated placement layer.
struct FederationOptions {
  /// Number of regional shards (ShardPlan is built with make_shard_plan:
  /// region labels when present, balanced graph cut otherwise).  1 is the
  /// degenerate single-scheduler federation (useful as a baseline).
  std::size_t shards{2};
  /// Options for every per-shard Scheduler (policy plugin included;
  /// cross-shard plans rank by the same policy).
  SchedulerOptions scheduler{};
  /// Options for every per-shard SchedulerService.
  service::ServiceOptions service{};
};

/// One committed cross-shard application, in federation (full-network)
/// coordinates.  The per-shard fragments of `load` are held as external
/// reservations named after the app inside each touched shard.
struct CrossApp {
  Application app;                 ///< the admitted request (global pins)
  /// Committed paths: placements and elements in full-network ids.  Their
  /// per-unit loads are folded into `load` and not kept per path.
  std::vector<PathInfo> paths;
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
  /// Blocks until the router queue is empty, no cross-shard plan,
  /// reserve or release round is in flight, and every shard drained.
  void drain() override;
  /// Refuses new requests, stops every shard (each answers what it has
  /// queued, a paused one included), then lets the router finish every
  /// plan and round those replies complete.  Every completion fires
  /// exactly once.  Idempotent.
  void stop() override;
  /// Shard counters summed, plus the federation's own `federation.*`
  /// instruments and the per-shard gauges merged into
  /// ServiceStats::metrics.
  service::ServiceStats stats() const override;
  obs::MetricsRegistry& registry() override { return registry_; }
  const obs::MetricsRegistry& registry() const override { return registry_; }
  /// Federation registry plus the per-shard registries summed by
  /// instrument name, and the per-shard gauges, rendered as one
  /// exposition.
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
  /// committed cross-shard loads and minus the pending holds of
  /// admissions whose reserve round is still in flight, failed elements
  /// zeroed.  Optimistic — shard-internal GR load is invisible here by
  /// design (the reserve round is the authoritative check); boundary
  /// links are exact.
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

  /// The union sub-network of one touched-shard set: the pinned shards'
  /// NCPs, the backbone of every transit shard between them, their
  /// intra-shard links, and every boundary link with both endpoints
  /// inside the union.  Cross-shard planning provisions on this instead
  /// of the full site, so a plan's cost scales with the regions an app
  /// actually spans rather than the whole federation — on perfbench's
  /// fed16 (2048 NCPs, 16 shards) a cross-shard plan averages ~266 NCPs.
  struct UnionSubnet {
    Network net;                          ///< the induced sub-graph
    std::vector<NcpId> to_global_ncp;     ///< sub node id -> full-site id
    std::vector<LinkId> to_global_link;   ///< sub link id -> full-site id
    std::map<NcpId, NcpId> to_sub_ncp;    ///< full-site node id -> sub id
  };

  /// One round of control requests (reserves or releases) in flight, one
  /// per shard.  Each shard callback writes only its own slot; the last
  /// one stamps `answered` and posts the round's finishing router job.
  struct Round {
    std::vector<std::size_t> shards;           ///< shards asked, ascending
    std::vector<service::ServiceResult> replies;  ///< by position in shards
    std::vector<std::string> refusals;  ///< reserve: the shard's reason
    std::vector<char> held;             ///< reserve: the shard holds it
    std::atomic<std::size_t> waiting{0};  ///< replies still outstanding
    std::chrono::steady_clock::time_point sent, answered;
  };

  /// One cross-shard admission from its plan on.  The planning shard's
  /// thread fills it; the router reads it in the job the plan's
  /// completion posts.
  struct CrossPlan {
    /// The app in; planning adds paths, rates, availability, load and
    /// elements, and the router the touched shards.
    CrossApp record;
    std::string refusal;  ///< why planning rejected the app, else empty
  };

  static constexpr std::size_t kCrossRoute = static_cast<std::size_t>(-1);

  /// Routes one arrival: home shard when every pin lands in one shard,
  /// otherwise a router job for the cross-shard path.  Never blocks.
  void dispatch_submit(Application app, Completion on_done);
  /// Cross-shard admission, first step (router job): begins the app's
  /// round and sends its plan, one SchedulerService::apply, to the
  /// pinned shard with the shortest queue (ties to the lowest index).
  void cross_admit(Application app, Completion on_done);
  /// The plan (planning shard's scheduling thread): provisions the app
  /// on its union sub-network and, if the boundary recheck passes, takes
  /// its pending hold.  The hold is its last step, so a plan that throws
  /// holds nothing.
  void plan_cross(CrossPlan& plan);
  /// Second step (router job, posted by the plan's completion): rejects
  /// the app, or splits its load into per-shard fragments and sends the
  /// reserve round.
  void reserve_cross(const std::shared_ptr<CrossPlan>& plan,
                     const service::ServiceResult& planned,
                     const Completion& on_done);
  /// Last step (router job, posted by the last reserve reply): admits
  /// the app, or releases its holds and then rejects it.
  void finish_admit(const std::shared_ptr<Round>& round,
                    const std::shared_ptr<CrossPlan>& plan,
                    const Completion& on_done);
  /// Cross-shard removal (router job): sends the release round, answered
  /// once every shard replied.  Parked while the app's own round is in
  /// flight, so same-name requests keep their order.
  void cross_remove(const std::string& name, Completion on_done);
  /// Answers a cross-shard submit with a rejection: frees its name,
  /// counts `counter`, logs the decision.
  void reject_cross(const std::string& name, bool gr, const char* counter,
                    const std::string& reason, const Completion& on_done);
  /// Sends `fn(scheduler, i)` to every shard of `round` (i = its slot);
  /// the last reply posts `then` as a router job.  Never blocks.
  void send_round(const std::shared_ptr<Round>& round,
                  std::function<void(Scheduler&, std::size_t)> fn,
                  std::function<void()> then);
  /// Sends the release of hold `name` to `shards`, then runs `then` as a
  /// router job once all replied (at once when `shards` is empty).
  void release_round(const std::string& name, std::vector<std::size_t> shards,
                     std::function<void()> then);
  /// Marks `name`'s round begun (router thread).
  void begin_round(const std::string& name);
  /// Ends `name`'s round: it leaves the in-flight count, `reply` answers
  /// the round's own request, then the removes parked behind it are
  /// answered in arrival order.
  void end_round(const std::string& name,
                 const std::function<void()>& reply);
  /// Adds (`sign` +1) or drops (−1) a pending hold of `load` on
  /// `elements`; an element whose last hold is dropped reads exactly 0
  /// again.  Caller holds cross_mu_.
  void hold(const std::vector<ElementKey>& elements, const LoadMap& load,
            int sign);
  /// plan_residual_ at `e` = capacity − cross_load_ − held_, or 0 when
  /// failed.  Caller holds cross_mu_.
  void update_plan_residual(const ElementKey& e);
  /// Translates an application's pinned NCPs to shard-local ids.
  Application to_local(const Application& app) const;
  /// The shard owning shard-internal element `e` (global id) and `e`'s
  /// key in that shard's own ids.  Boundary links belong to no shard.
  std::pair<std::size_t, ElementKey> to_shard(ElementKey e) const;
  /// The (lazily built, cached) union sub-network for an ascending
  /// touched-shard index set.  Safe from any thread: the cache is built
  /// and read under subnets_mu_, its entries are never erased, and each
  /// one's adjacency is built before it is published, so planning
  /// threads only ever read a returned sub-network.
  const UnionSubnet& union_subnet(const std::vector<std::size_t>& shards);
  /// Ascending distinct shard indices the app's pins land in.
  std::vector<std::size_t> pinned_shards(const Application& app) const;
  /// Sets `federation.shard.<s>.queue_depth` and `.apps` for every shard
  /// in `out`: the shard sums of stats() and prometheus_text() hide skew
  /// between shards.
  void add_shard_gauges(obs::MetricsSnapshot& out) const;
  /// Queues a router job: a request to admit or remove, or (with
  /// `finishes_round`) the job a plan's completion or a round's last
  /// reply posts, which the router runs first.
  void enqueue_job(std::function<void()> job, bool finishes_round = false);
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
  /// Planning shards share it; a std::map keeps each entry in place.
  std::mutex subnets_mu_;
  std::map<std::vector<std::size_t>, UnionSubnet> subnets_;

  /// Names with a plan, reserve or release round in flight, each with
  /// the removes parked behind it in arrival order.  Router thread only.
  std::map<std::string, std::deque<Completion>> rounds_;

  obs::MetricsRegistry registry_;  ///< federation.* instruments
  // Instruments resolved once, so no exit pays a name lookup.
  obs::Counter& busy_us_;      ///< federation.router.busy_us
  obs::Gauge& cross_in_flight_;  ///< federation.cross.in_flight
  obs::Histogram& plan_wait_us_;  ///< federation.cross.plan_wait.us
  obs::Histogram& plan_us_;    ///< federation.cross.plan.us
  obs::Histogram& round_us_;   ///< federation.cross.round.us

  /// Trace ids for requests the *federation* answers (the cross-shard
  /// path); shard-local requests carry their shard service's ids.
  std::atomic<std::uint64_t> next_trace_{1};

  /// Route table: app name → home shard index, or kCrossRoute.  Guards
  /// duplicate names across shards and directs removals.
  mutable std::mutex route_mu_;
  std::map<std::string, std::size_t> route_;

  /// Cross-shard state: committed apps and their aggregate load, the
  /// pending holds of admissions whose reserve round is in flight (kept
  /// apart, so an aborted round leaves cross_load_ untouched), the
  /// planning residual derived from both, and the failed-element set.
  mutable std::mutex cross_mu_;
  std::map<std::string, CrossApp> cross_;
  LoadMap cross_load_;
  LoadMap held_;
  std::vector<std::size_t> held_ncps_, held_links_;  ///< holds per element
  CapacitySnapshot plan_residual_;
  std::set<ElementKey> failed_;
  std::uint64_t cross_version_{0};  ///< bumps on every cross mutation

  /// Router: one thread that sends cross-shard plans and rounds and
  /// finishes them; it never plans and never waits on a shard.
  mutable std::mutex router_mu_;
  std::condition_variable router_cv_;   ///< wakes the router thread
  std::condition_variable idle_cv_;     ///< wakes drain()ers
  std::deque<std::function<void()>> jobs_;      ///< arrivals, FIFO
  std::deque<std::function<void()>> finishes_;  ///< finished rounds, FIFO
  std::size_t in_flight_rounds_{0};  ///< rounds_.size(), for drain()/stop()
  bool router_busy_{false};
  bool stopping_{false};
  std::thread router_;  ///< last member: joins before teardown
};

}  // namespace sparcle::federation
