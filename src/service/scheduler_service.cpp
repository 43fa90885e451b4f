#include "service/scheduler_service.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <utility>

#include "check/invariants.hpp"
#include "obs/obs.hpp"
#include "obs/prometheus.hpp"

namespace sparcle::service {
namespace {

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();

double elapsed_us(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Shortest representation of a double that round-trips.
std::string fmt(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) return "0";
  return std::string(buf, end);
}

/// A completion that fulfils `future` with the request's reply: the one
/// bridge from the reply callback to the blocking, future-based calls.
PlacementService::Completion fulfilling(std::future<ServiceResult>& future) {
  auto promise = std::make_shared<std::promise<ServiceResult>>();
  future = promise->get_future();
  return [promise](ServiceResult r) { promise->set_value(std::move(r)); };
}

}  // namespace

std::future<ServiceResult> PlacementService::submit(Application app) {
  std::future<ServiceResult> future;
  submit_async(std::move(app), fulfilling(future));
  return future;
}

std::future<ServiceResult> PlacementService::remove(std::string app_name) {
  std::future<ServiceResult> future;
  remove_async(std::move(app_name), fulfilling(future));
  return future;
}

const char* to_string(ServiceResult::Status status) {
  switch (status) {
    case ServiceResult::Status::kAdmitted: return "admitted";
    case ServiceResult::Status::kRejected: return "rejected";
    case ServiceResult::Status::kRemoved: return "removed";
    case ServiceResult::Status::kNotFound: return "not_found";
    case ServiceResult::Status::kQueueFull: return "queue_full";
    case ServiceResult::Status::kDeadlineExceeded: return "deadline_exceeded";
    case ServiceResult::Status::kShutdown: return "shutdown";
    case ServiceResult::Status::kApplied: return "applied";
  }
  return "unknown";
}

const AppView* ServiceSnapshot::find(const std::string& name) const {
  for (const AppView& view : apps)
    if (view.name == name) return &view;
  return nullptr;
}

SchedulerService::SchedulerService(Network net, SchedulerOptions sched_options,
                                   ServiceOptions options)
    : net_(net),
      scheduler_(std::move(net), sched_options),
      options_(options),
      policy_(policy::or_default(sched_options.policy)),
      start_(std::chrono::steady_clock::now()),
      window_(options.window_seconds == 0 ? 1 : options.window_seconds),
      paused_(options.start_paused) {
  // Default objectives; target 0 disables (SloTracker::add drops them).
  obs::SloSpec p99;
  p99.name = "admission_p99_us";
  p99.series = "admission_latency_us";
  p99.aggregate = obs::SloSpec::Aggregate::kP99;
  p99.target = options_.slo_admission_p99_us;
  slo_.add(std::move(p99));
  obs::SloSpec rej;
  rej.name = "reject_ratio";
  rej.series = "rejected_any";
  rej.aggregate = obs::SloSpec::Aggregate::kRatio;
  rej.denominator = "arrivals";
  rej.target = options_.slo_reject_ratio;
  slo_.add(std::move(rej));
  for (const obs::SloSpec& spec : options_.slos) slo_.add(spec);

  // Publish the empty version-0 snapshot so snapshot() never returns null.
  auto snap = std::make_shared<ServiceSnapshot>();
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    snap_ = std::move(snap);
  }
  scheduler_thread_ = std::thread([this] { scheduling_loop(); });
}

SchedulerService::~SchedulerService() { stop(); }

void SchedulerService::bump(const char* name, std::uint64_t n) {
  registry_.counter(name).add(n);
}

void SchedulerService::gauge_set(const char* name, double v) {
  registry_.gauge(name).set(v);
}

void SchedulerService::log_queue_reject(const char* reason_head,
                                        const std::string& app,
                                        bool guaranteed,
                                        const std::string& detail) {
  if (obs::DecisionLog* log = obs::decision_log()) {
    log->record(obs::DecisionKind::kQueueReject, app, guaranteed ? "GR" : "BE",
                detail.empty() ? std::string(reason_head)
                               : std::string(reason_head) + " " + detail,
                0.0, 0.0, 0);
  }
  bump((std::string("service.rejected.") + reason_head).c_str());
}

std::chrono::steady_clock::time_point SchedulerService::default_deadline()
    const {
  return options_.default_deadline.count() > 0
             ? std::chrono::steady_clock::now() + options_.default_deadline
             : kNoDeadline;
}

std::future<ServiceResult> SchedulerService::submit(
    Application app, std::chrono::steady_clock::time_point deadline) {
  std::future<ServiceResult> future;
  enqueue({.verb = Request::Verb::kSubmit,
           .app = std::move(app),
           .callback = fulfilling(future)},
          deadline);
  return future;
}

void SchedulerService::submit_async(Application app, Completion on_done) {
  enqueue({.verb = Request::Verb::kSubmit,
           .app = std::move(app),
           .callback = std::move(on_done)},
          default_deadline());
}

void SchedulerService::remove_async(std::string app_name, Completion on_done) {
  enqueue({.verb = Request::Verb::kRemove,
           .name = std::move(app_name),
           .callback = std::move(on_done)},
          default_deadline());
}

void SchedulerService::apply(SchedulerFn fn, Completion on_done) {
  enqueue({.verb = Request::Verb::kApply,
           .fn = std::move(fn),
           .callback = std::move(on_done)},
          kNoDeadline);
}

std::future<ServiceResult> SchedulerService::apply(SchedulerFn fn) {
  std::future<ServiceResult> future;
  apply(std::move(fn), fulfilling(future));
  return future;
}

bool SchedulerService::inspect(
    const std::function<void(const Scheduler&)>& fn) {
  // The reference capture is safe: get() blocks until the request is
  // fulfilled (run, or bounced with kShutdown without running fn).
  auto future = apply([&fn](Scheduler& scheduler) { fn(scheduler); });
  return future.get().status == ServiceResult::Status::kApplied;
}

void SchedulerService::enqueue(Request req,
                               std::chrono::steady_clock::time_point deadline) {
  req.enqueued = std::chrono::steady_clock::now();
  req.deadline = deadline;
  const bool is_submit = req.verb == Request::Verb::kSubmit;
  const std::string& label = is_submit ? req.app.name : req.name;
  const bool gr = is_submit && req.app.qoe.cls == QoeClass::kGuaranteedRate;
  // Removes and apply fns queue ahead of every submit (they only free
  // capacity or run control work) and stay FIFO; GR submits queue ahead
  // of BE ones, each class in the order of the policy's admission key
  // (decision point 1), computed here, outside the queue lock.
  policy::QueueOrder order{kControl, 0.0};
  if (is_submit) {
    const double deadline_s =
        deadline == kNoDeadline
            ? std::numeric_limits<double>::infinity()
            : std::chrono::duration<double>(deadline - start_).count();
    order = policy::queue_order(*policy_,
                                policy::pending_app(req.app, deadline_s),
                                gr ? kGr : kBe);
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ServiceResult result;
      result.status = ServiceResult::Status::kShutdown;
      result.reason = "service is stopping";
      req.callback(std::move(result));
      return;
    }
    window_.add("arrivals");
    const std::size_t depth = queue_.size();
    if (depth >= options_.queue_capacity) {
      window_.add("queue_rejected");
      window_.add("rejected_any");
      ServiceResult result;
      result.status = ServiceResult::Status::kQueueFull;
      result.reason = "queue_full: " + std::to_string(depth) + "/" +
                      std::to_string(options_.queue_capacity) +
                      " requests queued";
      log_queue_reject("queue_full", label, gr, result.reason);
      req.callback(std::move(result));
      return;
    }
    bump(req.verb == Request::Verb::kSubmit   ? "service.submits"
         : req.verb == Request::Verb::kRemove ? "service.removes"
                                              : "service.applies");
    req.trace = next_trace_.fetch_add(1, std::memory_order_relaxed);
    if (obs::ChromeTraceCollector* trace = obs::trace_collector())
      trace->record_flow("service.request", trace->to_origin_us(req.enqueued),
                         /*start=*/true, req.trace);
    queue_.emplace(order, std::move(req));
    bump("service.enqueued");
    gauge_set("service.queue.depth", static_cast<double>(depth + 1));
    window_.observe("queue_depth", static_cast<double>(depth + 1));
  }
  work_cv_.notify_one();
}

std::size_t SchedulerService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

ServiceStats SchedulerService::stats() const {
  const obs::MetricsSnapshot snap = registry_.snapshot();
  ServiceStats s;
  s.submits = snap.counter_or("service.submits");
  s.removes = snap.counter_or("service.removes");
  s.admitted = snap.counter_or("service.admitted");
  s.rejected = snap.counter_or("service.rejected");
  s.queue_full = snap.counter_or("service.rejected.queue_full");
  s.deadline_expired = snap.counter_or("service.rejected.deadline_exceeded");
  s.batches = snap.counter_or("service.batches");
  s.max_batch_seen =
      static_cast<std::uint64_t>(snap.gauge_or("service.batch.max_seen"));
  s.resolves_saved = snap.counter_or("service.resolves_saved");
  s.invariant_violations = snap.counter_or("service.invariant_violations");
  s.pf_solves = snap.counter_or("service.pf.solves");
  s.pf_newton_iters = snap.counter_or("service.pf.newton_iters");
  for (const auto& [name, value] : snap.counters)
    s.metrics[name] = static_cast<double>(value);
  for (const auto& [name, value] : snap.gauges) s.metrics[name] = value;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.first_violation = first_violation_;
  }
  return s;
}

obs::SloReport SchedulerService::slo_report() const {
  return slo_.evaluate(window_);
}

obs::MetricsSnapshot SchedulerService::telemetry_snapshot(
    obs::SloReport* report_out) const {
  obs::MetricsSnapshot snap = registry_.snapshot();
  const auto now = obs::TimeSeriesWindow::Clock::now();
  window_.export_to(snap, "service.window.", now);
  const obs::SloReport report = slo_.evaluate(window_, now);
  obs::SloTracker::export_to(report, snap);
  if (report_out != nullptr) *report_out = report;
  return snap;
}

std::string SchedulerService::prometheus_text() const {
  return obs::to_prometheus(telemetry_snapshot(nullptr));
}

std::map<std::string, std::string> SchedulerService::health_fields() const {
  obs::SloReport report;
  const obs::MetricsSnapshot snap = telemetry_snapshot(&report);
  const std::shared_ptr<const ServiceSnapshot> view = snapshot();

  std::map<std::string, std::string> fields;
  fields["status"] = "ok";
  fields["slo_state"] = obs::to_string(report.worst);
  fields["version"] = std::to_string(view->version);
  fields["apps"] = std::to_string(view->apps.size());
  fields["queue_depth"] = std::to_string(queue_depth());
  fields["window_seconds"] = std::to_string(window_.window_seconds());
  fields["arrivals_per_second"] =
      fmt(snap.gauge_or("service.window.arrivals.per_second"));
  fields["admitted_per_second"] =
      fmt(snap.gauge_or("service.window.admitted.per_second"));
  fields["rejected_per_second"] =
      fmt(snap.gauge_or("service.window.rejected_any.per_second"));
  fields["admission_p50_us"] =
      fmt(snap.gauge_or("service.window.admission_latency_us.p50"));
  fields["admission_p99_us"] =
      fmt(snap.gauge_or("service.window.admission_latency_us.p99"));
  for (const obs::SloEvaluation& eval : report.targets) {
    const std::string base = "slo." + eval.name;
    fields[base + ".state"] = obs::to_string(eval.state);
    fields[base + ".burn"] = fmt(eval.burn);
    fields[base + ".observed"] = fmt(eval.observed);
    fields[base + ".target"] = fmt(eval.target);
  }
  return fields;
}

std::shared_ptr<const ServiceSnapshot> SchedulerService::snapshot() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return snap_;
}

void SchedulerService::pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void SchedulerService::resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void SchedulerService::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return (queue_.empty() && !processing_) || stopping_;
  });
}

void SchedulerService::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    paused_ = false;  // a paused service still drains its queue on stop
  }
  work_cv_.notify_all();
  idle_cv_.notify_all();
  if (scheduler_thread_.joinable()) scheduler_thread_.join();
}

void SchedulerService::scheduling_loop() {
  for (;;) {
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] {
        return stopping_ || (!paused_ && !queue_.empty());
      });
      if (queue_.empty() && stopping_) return;
      // Pop up to max_batch requests in queue order (enqueue()).
      while (batch.size() < options_.max_batch && !queue_.empty()) {
        batch.push_back(std::move(queue_.begin()->second));
        queue_.erase(queue_.begin());
      }
      processing_ = true;
      gauge_set("service.queue.depth", static_cast<double>(queue_.size()));
    }

    process_batch(batch);

    {
      std::lock_guard<std::mutex> lock(mu_);
      processing_ = false;
    }
    idle_cv_.notify_all();
  }
}

void SchedulerService::process_batch(std::vector<Request>& batch) {
  obs::ScopedTimer timer("service.batch");
  const auto popped = std::chrono::steady_clock::now();

  // Reject expired requests up front; the survivors form the scheduler
  // batch.  Index into `batch` per survivor so results can be patched.
  std::vector<std::size_t> live;
  live.reserve(batch.size());
  std::vector<ServiceResult> results(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Request& req = batch[i];
    results[i].timeline.trace_id = req.trace;
    results[i].timeline.queue_us = elapsed_us(req.enqueued, popped);
    if (req.deadline < popped) {
      const bool submit = req.verb == Request::Verb::kSubmit;
      const std::string& label = submit ? req.app.name : req.name;
      results[i].status = ServiceResult::Status::kDeadlineExceeded;
      results[i].reason =
          "deadline_exceeded: waited " +
          std::to_string(
              static_cast<long long>(elapsed_us(req.enqueued, popped))) +
          "us in queue";
      const obs::ScopedTrace trace_scope(req.trace);
      log_queue_reject("deadline_exceeded", label,
                       submit && req.app.qoe.cls == QoeClass::kGuaranteedRate,
                       results[i].reason);
      window_.add("queue_rejected");
      window_.add("rejected_any");
      continue;
    }
    live.push_back(i);
  }

  // Per-request apply intervals; the gaps around them are batch assembly.
  std::vector<std::chrono::steady_clock::time_point> apply_start(
      batch.size(), popped),
      apply_end(batch.size(), popped);
  auto solve_start = popped, solve_end = popped;

  std::size_t admitted = 0, rejected = 0, removed = 0, resolves_saved = 0;
  if (!live.empty()) {
    scheduler_.begin_batch();
    for (std::size_t i : live) {
      Request& req = batch[i];
      // The trace scope tags every decision-log row and span the
      // scheduler emits while applying this request.
      const obs::ScopedTrace trace_scope(req.trace);
      const obs::ScopedTimer apply_span("service.apply");
      apply_start[i] = std::chrono::steady_clock::now();
      if (req.verb == Request::Verb::kApply) {
        // Control function (federation reserve/release, churn
        // injection, inspection).  A throwing fn fails its own request,
        // never the scheduling thread.
        try {
          req.fn(scheduler_);
          results[i].status = ServiceResult::Status::kApplied;
        } catch (const std::exception& e) {
          results[i].status = ServiceResult::Status::kRejected;
          results[i].reason = std::string("control function failed: ") +
                              e.what();
          bump("service.apply_failures");
        }
        apply_end[i] = std::chrono::steady_clock::now();
        continue;
      }
      if (req.verb == Request::Verb::kRemove) {
        const bool found = scheduler_.remove(req.name);
        results[i].status = found ? ServiceResult::Status::kRemoved
                                  : ServiceResult::Status::kNotFound;
        if (!found) results[i].reason = "no placed app named '" + req.name + "'";
        if (found) ++removed;
        apply_end[i] = std::chrono::steady_clock::now();
        continue;
      }
      // Names key remove and query, so the service (unlike the bare
      // Scheduler) rejects duplicate submissions instead of placing two
      // apps that later become indistinguishable.
      bool duplicate = false;
      for (const PlacedApp& placed : scheduler_.placed())
        if (placed.app.name == req.app.name) {
          duplicate = true;
          break;
        }
      if (duplicate) {
        results[i].status = ServiceResult::Status::kRejected;
        results[i].reason =
            "an app named '" + req.app.name + "' is already placed";
        ++rejected;
        apply_end[i] = std::chrono::steady_clock::now();
        continue;
      }
      // A malformed application (Application::validate throws) must
      // reject the one request, not kill the scheduling thread.
      AdmissionResult admission;
      try {
        admission = scheduler_.submit(req.app);
      } catch (const std::exception& e) {
        admission.admitted = false;
        admission.reason = std::string("invalid application: ") + e.what();
      }
      results[i].status = admission.admitted
                              ? ServiceResult::Status::kAdmitted
                              : ServiceResult::Status::kRejected;
      results[i].reason = admission.reason;
      results[i].rate = admission.rate;
      results[i].availability = admission.availability;
      results[i].paths = admission.path_count;
      if (admission.admitted)
        ++admitted;
      else
        ++rejected;
      apply_end[i] = std::chrono::steady_clock::now();
    }
    solve_start = std::chrono::steady_clock::now();
    const Scheduler::BatchReport report = scheduler_.end_batch();
    solve_end = std::chrono::steady_clock::now();
    if (report.deferred_resolves > 1)
      resolves_saved = report.deferred_resolves - 1;

    // Patch the batch results with post-solve state: BE apps admitted
    // mid-batch carried rate 0 until the deferred PF solve ran, and the
    // solve may (rarely) have evicted some of them.
    for (std::size_t i : live) {
      Request& req = batch[i];
      if (req.verb != Request::Verb::kSubmit ||
          results[i].status != ServiceResult::Status::kAdmitted)
        continue;
      if (std::find(report.evicted.begin(), report.evicted.end(),
                    req.app.name) != report.evicted.end()) {
        results[i].status = ServiceResult::Status::kRejected;
        results[i].reason = "resource allocation failed (evicted at batch end)";
        results[i].rate = 0.0;
        --admitted;
        ++rejected;
        continue;
      }
      if (req.app.qoe.cls == QoeClass::kBestEffort) {
        for (const PlacedApp& placed : scheduler_.placed()) {
          if (placed.app.name == req.app.name) {
            results[i].rate = placed.allocated_rate;
            break;
          }
        }
      }
    }
  }

  if (options_.validate_batches && !live.empty()) {
    const check::CheckReport report = check::check_scheduler_state(scheduler_);
    if (!report.ok()) {
      bump("service.invariant_violations");
      std::lock_guard<std::mutex> lock(mu_);
      if (first_violation_.empty()) first_violation_ = report.to_string();
    }
  }

  publish_snapshot();

  // Reply only after the snapshot is visible, so a client that observes
  // its reply and immediately queries sees a state that includes its own
  // request.
  const auto done = std::chrono::steady_clock::now();
  const double solve_us = elapsed_us(solve_start, solve_end);
  for (std::size_t i : live) {
    RequestTimeline& t = results[i].timeline;
    t.batch_us = elapsed_us(popped, apply_start[i]) +
                 elapsed_us(apply_end[i], solve_start);
    t.apply_us = elapsed_us(apply_start[i], apply_end[i]);
    t.solve_us = solve_us;
    t.reply_us = elapsed_us(solve_end, done);
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    results[i].latency_us = elapsed_us(batch[i].enqueued, done);
    if (results[i].status == ServiceResult::Status::kDeadlineExceeded)
      results[i].timeline.reply_us = elapsed_us(popped, done);
  }

  // Counters, window feeds, and trace flows must all be current before
  // any reply fires: a client that sees its reply may immediately read
  // stats(), scrape the ops endpoint, or export traces.
  {
    registry_.histogram("service.batch.size", {1, 2, 4, 8, 16, 32, 64, 128})
        .observe(static_cast<double>(batch.size()));
    auto& latency = registry_.histogram("service.admission_latency.us",
                                        obs::default_time_bounds_us());
    for (const ServiceResult& result : results)
      latency.observe(result.latency_us);
  }
  if (admitted > 0) bump("service.admitted", admitted);
  if (rejected > 0) bump("service.rejected", rejected);
  if (resolves_saved > 0) bump("service.resolves_saved", resolves_saved);
  bump("service.batches");
  registry_.gauge("service.batch.max_seen")
      .max(static_cast<double>(batch.size()));
  {
    const Scheduler::PfSolverStats pf = scheduler_.pf_solver_stats();
    if (pf.solves > prev_pf_.solves)
      bump("service.pf.solves", pf.solves - prev_pf_.solves);
    if (pf.newton_iters > prev_pf_.newton_iters)
      bump("service.pf.newton_iters", pf.newton_iters - prev_pf_.newton_iters);
    if (pf.solves > prev_pf_.solves)
      window_.add("pf_solves",
                  static_cast<double>(pf.solves - prev_pf_.solves));
    prev_pf_ = pf;
  }
  window_.add("batches");
  window_.observe("batch_occupancy", static_cast<double>(batch.size()));
  if (admitted > 0) window_.add("admitted", static_cast<double>(admitted));
  if (removed > 0) window_.add("removes", static_cast<double>(removed));
  if (rejected > 0) {
    window_.add("rejected", static_cast<double>(rejected));
    window_.add("rejected_any", static_cast<double>(rejected));
  }
  for (const ServiceResult& result : results)
    window_.observe("admission_latency_us", result.latency_us);
  for (std::size_t i : live) {
    const RequestTimeline& t = results[i].timeline;
    window_.observe("stage_queue_us", t.queue_us);
    window_.observe("stage_apply_us", t.apply_us);
    window_.observe("stage_solve_us", t.solve_us);
  }

  obs::ChromeTraceCollector* trace = obs::trace_collector();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (trace != nullptr && batch[i].trace != 0) {
      // One complete span per request (enqueue → reply) joined to the
      // enqueue-side flow start, so the viewer renders each request as a
      // causally-linked chain across threads.
      trace->record_complete("service.request",
                             trace->to_origin_us(batch[i].enqueued),
                             results[i].latency_us, batch[i].trace);
      trace->record_flow("service.request", trace->to_origin_us(done),
                         /*start=*/false, batch[i].trace);
    }
    batch[i].callback(std::move(results[i]));
  }
}

void SchedulerService::publish_snapshot() {
  auto snap = std::make_shared<ServiceSnapshot>();
  snap->total_gr_rate = scheduler_.total_gr_rate();
  snap->total_be_rate = scheduler_.total_be_rate();
  snap->be_utility = scheduler_.be_utility();
  snap->apps.reserve(scheduler_.placed().size());
  for (const PlacedApp& placed : scheduler_.placed()) {
    AppView view;
    view.name = placed.app.name;
    view.guaranteed = placed.app.qoe.cls == QoeClass::kGuaranteedRate;
    view.allocated_rate = placed.allocated_rate;
    view.paths = placed.paths.size();
    view.priority = view.guaranteed ? 0.0 : placed.app.qoe.priority;
    view.min_rate = view.guaranteed ? placed.app.qoe.min_rate : 0.0;
    snap->apps.push_back(std::move(view));
  }
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    snap->version = snap_->version + 1;
    snap_ = std::move(snap);
  }
  bump("service.snapshots");
}

}  // namespace sparcle::service
