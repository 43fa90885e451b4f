#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/scheduler.hpp"
#include "model/application.hpp"
#include "model/network.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/time_series.hpp"
#include "policy/policy.hpp"

/// \file scheduler_service.hpp
/// The long-running placement controller: a thread-safe admission daemon
/// wrapping one Scheduler.  Every entry point before this (CLI, benches,
/// examples) built a Scheduler, ran one batch of submits, and exited;
/// the service turns the same admission pipeline into something that
/// *serves* placement traffic continuously — the paper's own arrival
/// model (§IV-C/D: GR and BE applications arriving over time, admission
/// control per arrival) played forward as an online system.
///
/// Architecture (docs/service.md):
///
///   - producers (TCP connections, in-process clients) enqueue submit /
///     remove requests into a *bounded* queue with three priority classes
///     — control (removes, they only free capacity), Guaranteed-Rate
///     submits, Best-Effort submits — ordered within a submit class by
///     the scheduling policy's admission key (FIFO by default);
///   - one scheduling thread pops up to `max_batch` requests (higher
///     classes first), applies them inside a Scheduler batch
///     (begin_batch/end_batch), so the whole batch pays for ONE weighted
///     proportional-fair re-solve instead of one per request;
///   - backpressure: a full queue rejects at enqueue (`queue_full`), and a
///     request whose deadline passed while queued is rejected at dequeue
///     (`deadline_exceeded`) — both logged as DecisionKind::kQueueReject;
///   - reads never touch the scheduling thread: after every batch the
///     service publishes an immutable ServiceSnapshot, and snapshot() /
///     queries return the latest published one.

namespace sparcle::service {

/// Tuning knobs of the admission daemon (docs/service.md has the
/// operator guidance).
struct ServiceOptions {
  /// Bound on queued requests across all classes; enqueueing onto a full
  /// queue rejects immediately with ServiceResult::Status::kQueueFull.
  std::size_t queue_capacity{1024};
  /// Most requests applied per scheduler batch (one PF re-solve each).
  /// 1 reproduces the classic per-call pipeline.
  std::size_t max_batch{16};
  /// Deadline applied to requests submitted without an explicit one;
  /// zero means "no deadline".  A request whose deadline has passed by
  /// the time the scheduling thread picks it up is rejected unprocessed.
  std::chrono::milliseconds default_deadline{0};
  /// Run the invariant checker (check::check_scheduler_state) on the
  /// scheduler state behind every published snapshot; violations are
  /// counted in ServiceStats::invariant_violations and the first report
  /// is kept (ServiceStats::first_violation).  Stress tests and canary
  /// deployments enable this; it re-solves problem (4) per batch.
  bool validate_batches{false};
  /// Start with the scheduling thread paused (resume() arms it).  Lets
  /// tests and load generators stage a queue deterministically.
  bool start_paused{false};
  /// Width of the live telemetry window (per-second buckets) behind
  /// window(), the `service.window.*` exposition family, and SLO
  /// evaluation.
  std::size_t window_seconds{60};
  /// Default SLO: admission latency p99 ceiling over the window, in
  /// microseconds.  0 disables the objective.
  double slo_admission_p99_us{100000.0};
  /// Default SLO: ceiling on (queue + scheduler) rejections as a fraction
  /// of arrivals over the window.  0 disables the objective.
  double slo_reject_ratio{0.25};
  /// Extra operator-defined objectives over the window series
  /// (docs/observability.md lists the series names).
  std::vector<obs::SloSpec> slos;
};

/// Per-stage latency breakdown of one request's journey through the
/// admission pipeline.  The stages partition enqueue→reply, so they sum
/// to ServiceResult::latency_us (within clock-read jitter):
///
///   queue  waiting in the bounded priority queue (enqueue → batch pop)
///   batch  batch assembly around this request's own turn (pop → its
///          scheduler call, plus the gap until the shared solve starts)
///   apply  this request's own scheduler submit/remove call
///   solve  the batch's shared deferred PF re-solve (end_batch); every
///          request in the batch reports the same value — that is the
///          cost amortization made visible
///   reply  post-solve bookkeeping until the reply callback fires
struct RequestTimeline {
  std::uint64_t trace_id{0};  ///< non-zero once the request is queued
  double queue_us{0.0};
  double batch_us{0.0};
  double apply_us{0.0};
  double solve_us{0.0};
  double reply_us{0.0};

  double total_us() const {
    return queue_us + batch_us + apply_us + solve_us + reply_us;
  }
};

/// Terminal outcome of one service request.
struct ServiceResult {
  enum class Status {
    kAdmitted,          ///< submit: application placed
    kRejected,          ///< submit: admission control said no
    kRemoved,           ///< remove: application found and removed
    kNotFound,          ///< remove: no such placed application
    kQueueFull,         ///< bounced at enqueue: bounded queue at capacity
    kDeadlineExceeded,  ///< bounced at dequeue: deadline passed in queue
    kShutdown,          ///< bounced: the service is stopping
    kApplied,           ///< apply(): control function ran on the scheduler
  };
  Status status{Status::kRejected};
  std::string reason;        ///< human-readable detail (rejections)
  double rate{0.0};          ///< allocated rate (admitted submits)
  double availability{0.0};  ///< achieved availability (admitted submits)
  std::size_t paths{0};      ///< committed path count (admitted submits)
  /// Time the request spent from enqueue to reply, in microseconds.
  double latency_us{0.0};
  /// Trace id plus the per-stage breakdown of latency_us.  trace_id is 0
  /// only for requests bounced before queueing (queue_full, shutdown).
  RequestTimeline timeline;

  bool ok() const {
    return status == Status::kAdmitted || status == Status::kRemoved;
  }
};

/// Symbolic name of a result status (`admitted`, `rejected`, `removed`,
/// `not_found`, `queue_full`, `deadline_exceeded`, `shutdown`, `applied`)
/// — the wire protocol's `status` field (`applied` never crosses the
/// wire; it is the in-process control-function outcome).
const char* to_string(ServiceResult::Status status);

/// One placed application inside a published snapshot.
struct AppView {
  std::string name;
  bool guaranteed{false};     ///< GR (true) or BE (false)
  double allocated_rate{0.0};
  std::size_t paths{0};
  double priority{0.0};       ///< BE weight (0 for GR)
  double min_rate{0.0};       ///< GR guarantee (0 for BE)
};

/// Immutable state published by the scheduling thread after every batch.
/// Readers hold a shared_ptr to it, so a reader can never block — or be
/// blocked by — admission work.
struct ServiceSnapshot {
  std::uint64_t version{0};       ///< batch sequence number, starts at 1
  double total_gr_rate{0.0};      ///< Σ reserved GR rate
  double total_be_rate{0.0};      ///< Σ allocated BE rate
  double be_utility{0.0};         ///< Σ P_i log x_i over placed BE apps
  std::vector<AppView> apps;      ///< placed apps, admission order

  /// The view of `name`, or nullptr.
  const AppView* find(const std::string& name) const;
};

/// Monotone counters describing the service's lifetime.  Every numeric
/// field is *derived* from the service's own metrics registry (the same
/// source the ops endpoint exposes), so a counter can never drift from
/// what a scrape reports; `metrics` carries the full registry snapshot —
/// counters and gauges by instrument name (docs/observability.md).
struct ServiceStats {
  std::uint64_t submits{0};          ///< submit requests accepted into the queue
  std::uint64_t removes{0};          ///< remove requests accepted into the queue
  std::uint64_t admitted{0};         ///< submits admitted by the scheduler
  std::uint64_t rejected{0};         ///< submits rejected by the scheduler
  std::uint64_t queue_full{0};       ///< requests bounced at enqueue
  std::uint64_t deadline_expired{0}; ///< requests bounced at dequeue
  std::uint64_t batches{0};          ///< scheduler batches executed
  std::uint64_t max_batch_seen{0};   ///< largest batch actually popped
  std::uint64_t resolves_saved{0};   ///< PF re-solves amortized away
  std::uint64_t invariant_violations{0};  ///< validate_batches failures
  std::string first_violation;       ///< first checker report, if any
  // Snapshot of the wrapped scheduler's PF solver telemetry (see
  // Scheduler::PfSolverStats), refreshed after every batch.
  std::uint64_t pf_solves{0};        ///< weighted-PF solves actually run
  std::uint64_t pf_newton_iters{0};  ///< PF iterations, all solves
  /// Every registered service instrument (counters and gauges) by name —
  /// the registry snapshot the named fields above are read from.
  std::map<std::string, double> metrics;
};

/// The abstract placement-service surface the front ends program against:
/// everything the event-loop server, the TCP server, and the in-process
/// client need — admission (completion callbacks, and blocking futures
/// over them), snapshots, lifecycle, and telemetry.  SchedulerService
/// (one global scheduler) and federation::FederatedService (regional
/// shards behind the same contract) are the two implementations, which
/// is what lets `sparcle_serve --shards N` swap the backend without the
/// wire front ends noticing.
class PlacementService {
 public:
  virtual ~PlacementService() = default;

  /// Callback invoked exactly once with a request's terminal result — a
  /// request's only reply channel, so it must be non-empty.  Runs on a
  /// service-internal thread (batch completions) or inline on the
  /// caller's thread (enqueue-time bounces: queue_full / shutdown), so it
  /// must be cheap and must not re-enter the service.
  using Completion = std::function<void(ServiceResult)>;

  /// Enqueues an admission request; `on_done` fires when the request has
  /// been fully processed (or immediately on queue_full/shutdown).  The
  /// event-loop front end's path — nothing ever blocks.
  virtual void submit_async(Application app, Completion on_done) = 0;
  /// Enqueues a removal (served ahead of submits — it only frees
  /// capacity); `on_done` as for submit_async.
  virtual void remove_async(std::string app_name, Completion on_done) = 0;
  /// submit_async() with a future that resolves to the reply.
  std::future<ServiceResult> submit(Application app);
  /// remove_async() with a future that resolves to the reply.
  std::future<ServiceResult> remove(std::string app_name);
  /// The latest published snapshot — never null, never blocks.
  virtual std::shared_ptr<const ServiceSnapshot> snapshot() const = 0;
  /// Blocks until every request enqueued before the call has been answered.
  virtual void drain() = 0;
  /// Graceful drain-and-stop; idempotent.
  virtual void stop() = 0;
  /// Snapshot of the lifetime counters.
  virtual ServiceStats stats() const = 0;
  /// The service's own always-on metrics registry.
  virtual obs::MetricsRegistry& registry() = 0;
  virtual const obs::MetricsRegistry& registry() const = 0;
  /// Full Prometheus text exposition (the wire `metrics` verb).
  virtual std::string prometheus_text() const = 0;
  /// Flat health document (the wire `stats` verb).
  virtual std::map<std::string, std::string> health_fields() const = 0;
  /// The *full* network this service places onto (federated: the whole
  /// site, not one shard) — the event loop resolves NCP names against it.
  virtual const Network& network() const = 0;
};

/// The concurrent admission daemon.  All public methods are thread-safe;
/// the wrapped Scheduler is touched only by the internal scheduling
/// thread.  Destruction stops the service (pending requests are answered
/// with kShutdown).
class SchedulerService : public PlacementService {
 public:
  /// Serves placement over `net` using SPARCLE's own assignment algorithm.
  SchedulerService(Network net, SchedulerOptions sched_options = {},
                   ServiceOptions options = {});
  ~SchedulerService() override;

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// Enqueues an admission request with ServiceOptions::default_deadline;
  /// `on_done` fires when the batch containing it completes (or
  /// immediately on queue_full/shutdown).  GR submissions queue ahead of
  /// BE submissions.
  void submit_async(Application app, Completion on_done) override;
  /// Enqueues a removal (control class: served before submits).
  void remove_async(std::string app_name, Completion on_done) override;

  using PlacementService::submit;
  /// submit() with an explicit deadline: if the scheduling thread picks
  /// the request up after `deadline`, it is rejected unprocessed.
  std::future<ServiceResult> submit(
      Application app, std::chrono::steady_clock::time_point deadline);

  /// A control function run on the scheduling thread with exclusive
  /// access to the wrapped Scheduler — the federation layer's hook for
  /// the cross-shard reserve/release calls and churn injection without
  /// a second synchronization domain.  The function must not
  /// re-enter the service and must leave any open batch balanced (it
  /// runs inside the current scheduler batch, so deferred PF re-solves
  /// settle at batch end as usual).
  using SchedulerFn = std::function<void(Scheduler&)>;

  /// Enqueues `fn` at control priority (ahead of submits); `on_done`
  /// fires with kApplied on the scheduling thread after the batch
  /// containing it completes, or at once with kQueueFull / kShutdown when
  /// `fn` never ran.  Control requests never expire.
  void apply(SchedulerFn fn, Completion on_done);
  /// apply() with a future that resolves to the reply.
  std::future<ServiceResult> apply(SchedulerFn fn);

  /// Runs `fn` on the scheduling thread against the settled post-batch
  /// scheduler state and blocks until it finished — the read-side
  /// counterpart of apply() (the federation conservation check and tests
  /// use it to observe residuals race-free).  Returns false if the
  /// service was stopping and `fn` never ran.
  bool inspect(const std::function<void(const Scheduler&)>& fn);

  /// The latest published snapshot — never null after construction (an
  /// empty version-0 snapshot is published at start), never blocks.
  std::shared_ptr<const ServiceSnapshot> snapshot() const override;

  /// Blocks until every request enqueued before the call has been
  /// answered and its snapshot published.  Does not stop the service.
  void drain() override;

  /// Graceful drain-and-stop: stop accepting new requests, process
  /// everything already queued, then join the scheduling thread.
  /// Requests that arrive after stop() begins resolve to kShutdown.
  /// Idempotent; the destructor calls it.
  void stop() override;

  /// Pauses the scheduling thread after the in-flight batch (see
  /// ServiceOptions::start_paused).
  void pause();
  /// Resumes a paused scheduling thread.
  void resume();

  /// Snapshot of the lifetime counters.
  ServiceStats stats() const override;

  /// Requests currently queued (all classes).
  std::size_t queue_depth() const;

  /// The service's own metrics registry — always on, independent of the
  /// process-global obs sinks.  Installing it globally (sparcle_serve
  /// does) folds scheduler.* / assigner.* instruments into the same
  /// registry the ops endpoint exposes.
  obs::MetricsRegistry& registry() override { return registry_; }
  const obs::MetricsRegistry& registry() const override { return registry_; }

  /// The live sliding window behind `service.window.*` and the SLOs.
  const obs::TimeSeriesWindow& window() const { return window_; }

  /// Evaluates the configured SLOs against the window right now.
  obs::SloReport slo_report() const;

  /// Full Prometheus text exposition: the registry, the window gauges
  /// (`service.window.*`), and the SLO gauges (`slo.*`), prefix
  /// `sparcle_`.  The wire `metrics` verb serves this.
  std::string prometheus_text() const override;

  /// Flat health document for the wire `stats` verb: status, SLO
  /// worst-state, queue depth, window rates, and per-objective burn.
  std::map<std::string, std::string> health_fields() const override;

  /// The network this service places onto.  Immutable for the service's
  /// lifetime; the event loop uses it to resolve NCP names in wire
  /// submissions.
  const Network& network() const override { return net_; }

 private:
  struct Request {
    enum class Verb { kSubmit, kRemove, kApply } verb{Verb::kSubmit};
    Application app{};      ///< submit payload
    std::string name{};     ///< remove payload
    SchedulerFn fn{};       ///< apply payload (control function)
    std::uint64_t trace{0};  ///< trace id, assigned at enqueue
    std::chrono::steady_clock::time_point enqueued{};
    std::chrono::steady_clock::time_point deadline{};  ///< max() = none
    Completion callback{};  ///< the reply channel, fired exactly once
  };
  /// Queue class (policy::QueueOrder's first member): lower pops first.
  enum : std::size_t { kControl = 0, kGr = 1, kBe = 2 };

  /// Now + ServiceOptions::default_deadline, or no deadline when it is 0.
  std::chrono::steady_clock::time_point default_deadline() const;
  /// Queues `req` in its class (or bounces it through its callback).
  void enqueue(Request req, std::chrono::steady_clock::time_point deadline);
  void scheduling_loop();
  void process_batch(std::vector<Request>& batch);
  void publish_snapshot();
  /// Counter add / gauge set on the service's own registry (never the
  /// global sink: a federation adds its shards' registries itself).
  void bump(const char* name, std::uint64_t n = 1);
  void gauge_set(const char* name, double v);
  /// Logs a queue-level bounce to the installed decision log and counts
  /// it (`service.rejected.<reason_head>`).
  void log_queue_reject(const char* reason_head, const std::string& app,
                        bool guaranteed, const std::string& detail);
  /// registry_ snapshot + window + SLO gauges merged — the exposition's
  /// and health document's single source.
  obs::MetricsSnapshot telemetry_snapshot(obs::SloReport* report_out) const;

  Network net_;               ///< immutable reference copy for readers
  Scheduler scheduler_;       ///< touched only by the scheduling thread
  ServiceOptions options_;
  /// Admission-ordering policy (decision point 1, docs/policies.md),
  /// shared from SchedulerOptions::policy; a null policy there means
  /// DefaultPolicy, whose constant key gives the classic 3-class FIFO.
  std::shared_ptr<const policy::SchedulingPolicy> policy_;
  /// Service birth instant: the epoch of the deadline seconds a
  /// policy's admission key sees.
  std::chrono::steady_clock::time_point start_;

  obs::MetricsRegistry registry_;   ///< always-on service instruments
  obs::TimeSeriesWindow window_;    ///< live per-second telemetry
  obs::SloTracker slo_;             ///< objectives over window_
  std::atomic<std::uint64_t> next_trace_{1};

  mutable std::mutex mu_;     ///< guards queue_, first_violation_, flags
  std::condition_variable work_cv_;   ///< wakes the scheduling thread
  std::condition_variable idle_cv_;   ///< wakes drain()ers
  /// Every waiting request, in pop order: by class, then by the
  /// policy's admission key, ties in arrival order.
  policy::AdmissionQueue<Request> queue_;
  std::string first_violation_;  ///< first checker report, if any
  /// PF counters from the previous batch (scheduler reports absolutes;
  /// the window wants deltas).  Scheduling thread only.
  Scheduler::PfSolverStats prev_pf_;
  bool paused_{false};
  bool stopping_{false};
  bool processing_{false};    ///< a batch is being applied right now

  mutable std::mutex snap_mu_;
  std::shared_ptr<const ServiceSnapshot> snap_;

  std::thread scheduler_thread_;  ///< last member: joins before teardown
};

}  // namespace sparcle::service
