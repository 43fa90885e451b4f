#include "federation/federation.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/availability.hpp"
#include "obs/obs.hpp"
#include "obs/prometheus.hpp"

namespace sparcle::federation {

using service::ServiceResult;
using service::ServiceSnapshot;
using service::ServiceStats;

namespace {

constexpr double kTol = 1e-9;

/// Fraction of each path's standalone bottleneck rate reserved for a
/// cross-shard Best-Effort application.  Cross-shard BE apps cannot join
/// any single shard's proportional-fair solve (their paths span solvers),
/// so the federation pins them a fixed-rate hold instead — conservative
/// by design; shard-local BE apps keep exact PF shares.
constexpr double kCrossBeRateFraction = 0.25;

/// Cap on task-assignment paths provisioned for one cross-shard app.
constexpr std::size_t kCrossMaxPaths = 2;

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

FederatedService::FederatedService(Network net, FederationOptions options)
    : net_(std::move(net)),
      plan_(make_shard_plan(net_, options.shards)),
      options_(std::move(options)),
      // The shards' assigner options, policy included, so cross-shard
      // apps are ranked by the same rule as shard-local ones.
      assigner_(options_.scheduler.assigner_options_with_policy()),
      cross_in_flight_(registry_.gauge("federation.cross.in_flight")),
      plan_wait_us_(registry_.histogram("federation.cross.plan_wait.us",
                                        obs::default_time_bounds_us())),
      plan_us_(registry_.histogram("federation.cross.plan.us",
                                   obs::default_time_bounds_us())),
      round_us_(registry_.histogram("federation.cross.round.us",
                                    obs::default_time_bounds_us())),
      cross_load_(LoadMap::zeros(net_)),
      held_(LoadMap::zeros(net_)),
      held_ncps_(net_.ncp_count(), 0),
      held_links_(net_.link_count(), 0),
      plan_residual_(net_) {
  shards_.reserve(plan_.shard_count());
  for (std::size_t s = 0; s < plan_.shard_count(); ++s)
    shards_.push_back(std::make_unique<service::SchedulerService>(
        plan_.shards[s].net, options_.scheduler, options_.service));
  registry_.gauge("federation.shards")
      .set(static_cast<double>(plan_.shard_count()));
  registry_.gauge("federation.boundary_links")
      .set(static_cast<double>(plan_.boundary_links.size()));
  registry_.gauge("federation.cross.apps").set(0.0);
}

FederatedService::~FederatedService() { stop(); }

FederatedService::TrimOnTeardown::~TrimOnTeardown() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

// ---------------------------------------------------------------------------
// PlacementService surface

void FederatedService::submit_async(Application app, Completion on_done) {
  const auto dispatched = Clock::now();
  try {
    app.validate();
  } catch (const std::exception& e) {
    bump("federation.invalid");
    complete(on_done, ServiceResult::Status::kRejected, e.what());
    return;
  }

  const std::vector<std::size_t> touched = pinned_shards(app);
  const bool cross = touched.size() > 1;
  // Unpinned apps (no sources/sinks — degenerate but valid graphs) have
  // no locality signal; shard 0 hosts them.
  const std::size_t home = touched.empty() ? 0 : touched.front();

  // A cross submit begins its round in the critical section that
  // publishes its route, so a remove that finds the route also finds the
  // round.  Bounces are answered after unlocking.
  bool stopping = false;
  bool duplicate = false;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    stopping = stopping_;
    duplicate = !stopping &&
                !route_.try_emplace(app.name, cross ? kCrossRoute : home).second;
    if (!stopping && !duplicate && cross) {
      rounds_.try_emplace(app.name);
      cross_in_flight_.set(static_cast<double>(rounds_.size()));
    }
  }
  if (stopping) {
    complete(on_done, ServiceResult::Status::kShutdown, "service is stopping");
    return;
  }
  if (duplicate) {
    bump("federation.duplicates");
    complete(on_done, ServiceResult::Status::kRejected,
             "duplicate application name '" + app.name +
                 "' across the federation");
    return;
  }

  if (!cross) {
    bump("federation.local.routed");
    log_decision(app.name, app.qoe.cls == QoeClass::kGuaranteedRate,
                 "routed to shard " + std::to_string(home), 0.0, 0.0, 0);
    const std::string name = app.name;
    shards_[home]->submit_async(
        to_local(app),
        [this, name, on_done = std::move(on_done)](ServiceResult r) {
          if (r.status != ServiceResult::Status::kAdmitted) {
            std::lock_guard<std::mutex> lock(route_mu_);
            route_.erase(name);
          }
          on_done(std::move(r));
        });
    return;
  }

  bump("federation.cross.submits");
  cross_admit(std::move(app), std::move(on_done), dispatched);
}

FederatedService::Completion FederatedService::stamp_timeline(
    Completion on_done, Clock::time_point enqueued,
    std::shared_ptr<const CrossPlan> plan) {
  // Cross-shard requests are answered by the federation, not by one
  // SchedulerService, so it fills the wire's request-tracing contract
  // itself: queue_us is the plan's wait on its shard (a remove waits in
  // no queue), apply_us the rest of the cross-shard protocol — the plan
  // and the rounds (there is no batch or shared PF solve to report).
  // The stamp wraps the completion, so every cross outcome — admitted,
  // rejected, aborted, removed — carries a timeline.
  const std::uint64_t trace =
      next_trace_.fetch_add(1, std::memory_order_relaxed);
  return [on_done = std::move(on_done), enqueued, plan = std::move(plan),
          trace](ServiceResult r) {
    const auto done = Clock::now();
    const auto started = plan ? plan->started : enqueued;
    r.timeline.trace_id = trace;
    r.timeline.queue_us = us_between(enqueued, started);
    r.timeline.apply_us = us_between(started, done);
    r.latency_us = us_between(enqueued, done);
    on_done(std::move(r));
  };
}

void FederatedService::remove_async(std::string app_name, Completion on_done) {
  const auto enqueued = Clock::now();
  bool stopping = false;
  bool found = false;
  std::size_t route = 0;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    stopping = stopping_;
    const auto it = route_.find(app_name);
    found = !stopping && it != route_.end();
    if (found) route = it->second;
    if (found && route == kCrossRoute) {
      // A cross remove parks behind its app's round in flight, or begins
      // a round of its own in this critical section, so same-name
      // requests keep their order.
      const auto [round, begun] = rounds_.try_emplace(app_name);
      if (!begun) {
        round->second.push_back(
            stamp_timeline(std::move(on_done), enqueued, nullptr));
        return;  // answered when the round ends
      }
      cross_in_flight_.set(static_cast<double>(rounds_.size()));
    }
  }
  if (stopping) {
    complete(on_done, ServiceResult::Status::kShutdown, "service is stopping");
    return;
  }
  if (!found) {
    complete(on_done, ServiceResult::Status::kNotFound,
             "no application '" + app_name + "' in the federation");
    return;
  }
  if (route == kCrossRoute) {
    cross_remove(app_name,
                 stamp_timeline(std::move(on_done), enqueued, nullptr));
    return;
  }

  bump("federation.local.removes");
  const std::string name = app_name;
  shards_[route]->remove_async(
      std::move(app_name),
      [this, name, on_done = std::move(on_done)](ServiceResult r) {
        if (r.status == ServiceResult::Status::kRemoved) {
          std::lock_guard<std::mutex> lock(route_mu_);
          route_.erase(name);
        }
        on_done(std::move(r));
      });
}

std::shared_ptr<const ServiceSnapshot> FederatedService::snapshot() const {
  auto out = std::make_shared<ServiceSnapshot>();
  for (const auto& shard : shards_) {
    const std::shared_ptr<const ServiceSnapshot> s = shard->snapshot();
    out->version += s->version;
    out->total_gr_rate += s->total_gr_rate;
    out->total_be_rate += s->total_be_rate;
    out->be_utility += s->be_utility;
    out->apps.insert(out->apps.end(), s->apps.begin(), s->apps.end());
  }
  std::lock_guard<std::mutex> lock(cross_mu_);
  out->version += cross_version_;
  for (const auto& [name, ca] : cross_) {
    service::AppView view;
    view.name = name;
    view.guaranteed = ca.app.qoe.cls == QoeClass::kGuaranteedRate;
    view.allocated_rate = ca.total_rate;
    view.paths = ca.paths.size();
    if (view.guaranteed) {
      view.min_rate = ca.app.qoe.min_rate;
      out->total_gr_rate += ca.total_rate;
    } else {
      view.priority = ca.app.qoe.priority;
      out->total_be_rate += ca.total_rate;
      if (ca.total_rate > 0)
        out->be_utility += ca.app.qoe.priority * std::log(ca.total_rate);
    }
    out->apps.push_back(std::move(view));
  }
  return out;
}

void FederatedService::drain() {
  {
    std::unique_lock<std::mutex> lock(route_mu_);
    idle_cv_.wait(lock, [this] { return rounds_.empty() && replying_ == 0; });
  }
  for (const auto& shard : shards_) shard->drain();
}

void FederatedService::stop() {
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    stopping_ = true;
  }
  // Shards first: each answers every plan, reserve and release it holds
  // queued (a paused shard resumes to do so), and a request sent to a
  // stopped shard is answered at once with kShutdown.  So once the last
  // shard stopped, every round has had its last reply; a step still
  // running on a submitter's thread is waited for here.
  for (const auto& shard : shards_) shard->stop();
  std::unique_lock<std::mutex> lock(route_mu_);
  idle_cv_.wait(lock, [this] { return rounds_.empty() && replying_ == 0; });
}

ServiceStats FederatedService::stats() const {
  ServiceStats out;
  for (const auto& shard : shards_) {
    const ServiceStats s = shard->stats();
    out.submits += s.submits;
    out.removes += s.removes;
    out.admitted += s.admitted;
    out.rejected += s.rejected;
    out.queue_full += s.queue_full;
    out.deadline_expired += s.deadline_expired;
    out.batches += s.batches;
    out.max_batch_seen = std::max(out.max_batch_seen, s.max_batch_seen);
    out.resolves_saved += s.resolves_saved;
    out.invariant_violations += s.invariant_violations;
    if (out.first_violation.empty()) out.first_violation = s.first_violation;
    out.pf_solves += s.pf_solves;
    out.pf_newton_iters += s.pf_newton_iters;
    for (const auto& [name, v] : s.metrics) out.metrics[name] += v;
  }
  obs::MetricsSnapshot fed = registry_.snapshot();
  add_shard_gauges(fed);
  for (const auto& [name, v] : fed.counters)
    out.metrics[name] += static_cast<double>(v);
  for (const auto& [name, v] : fed.gauges) out.metrics[name] += v;
  // Cross-shard admissions never enter a shard's submit pipeline; fold
  // them into the federation-level totals so `stats` reflects all traffic.
  out.submits += fed.counter_or("federation.cross.submits");
  out.admitted += fed.counter_or("federation.cross.admitted");
  out.rejected += fed.counter_or("federation.cross.rejected") +
                  fed.counter_or("federation.cross.aborted_reserve");
  out.removes += fed.counter_or("federation.cross.removes");
  return out;
}

std::string FederatedService::prometheus_text() const {
  obs::MetricsSnapshot merged = registry_.snapshot();
  for (const auto& shard : shards_) {
    const obs::MetricsSnapshot s = shard->registry().snapshot();
    for (const auto& [name, v] : s.counters) merged.counters[name] += v;
    for (const auto& [name, v] : s.gauges) merged.gauges[name] += v;
    for (const auto& [name, h] : s.histograms) {
      auto [it, inserted] = merged.histograms.emplace(name, h);
      if (inserted) continue;
      obs::HistogramSnapshot& acc = it->second;
      if (acc.bounds != h.bounds) continue;  // incompatible, keep first
      for (std::size_t i = 0; i < acc.buckets.size(); ++i)
        acc.buckets[i] += h.buckets[i];
      acc.count += h.count;
      acc.sum += h.sum;
    }
  }
  add_shard_gauges(merged);
  return obs::to_prometheus(merged);
}

void FederatedService::add_shard_gauges(obs::MetricsSnapshot& out) const {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::string prefix = "federation.shard." + std::to_string(s);
    out.gauges[prefix + ".queue_depth"] =
        static_cast<double>(shards_[s]->queue_depth());
    out.gauges[prefix + ".apps"] =
        static_cast<double>(shards_[s]->snapshot()->apps.size());
  }
}

std::map<std::string, std::string> FederatedService::health_fields() const {
  const std::shared_ptr<const ServiceSnapshot> view = snapshot();
  std::size_t queue_depth = 0;
  for (const auto& shard : shards_) queue_depth += shard->queue_depth();
  std::size_t cross_apps = 0;
  {
    std::lock_guard<std::mutex> lock(cross_mu_);
    cross_apps = cross_.size();
  }
  // The federation's SLO state is the worst of its shards' — one
  // breached shard means the site is breached, whatever the others say.
  const auto rank = [](const std::string& s) {
    return s == "breached" ? 2 : s == "degraded" ? 1 : 0;
  };
  std::string slo_state = "ok";
  for (const auto& shard : shards_) {
    const auto shard_fields = shard->health_fields();
    const auto it = shard_fields.find("slo_state");
    if (it != shard_fields.end() && rank(it->second) > rank(slo_state))
      slo_state = it->second;
  }

  std::map<std::string, std::string> fields;
  fields["status"] = "ok";
  fields["federated"] = "true";
  fields["slo_state"] = slo_state;
  fields["shards"] = std::to_string(plan_.shard_count());
  fields["boundary_links"] = std::to_string(plan_.boundary_links.size());
  fields["version"] = std::to_string(view->version);
  fields["apps"] = std::to_string(view->apps.size());
  fields["cross_apps"] = std::to_string(cross_apps);
  fields["queue_depth"] = std::to_string(queue_depth);
  return fields;
}

// ---------------------------------------------------------------------------
// Federation surface

std::map<std::string, CrossApp> FederatedService::cross_apps() const {
  std::lock_guard<std::mutex> lock(cross_mu_);
  return cross_;
}

CapacitySnapshot FederatedService::plan_residual() const {
  std::lock_guard<std::mutex> lock(cross_mu_);
  return plan_residual_;
}

std::set<ElementKey> FederatedService::failed_elements() const {
  std::lock_guard<std::mutex> lock(cross_mu_);
  return failed_;
}

std::pair<std::size_t, ElementKey> FederatedService::to_shard(
    ElementKey e) const {
  const auto i = static_cast<std::size_t>(e.index);
  if (e.kind == ElementKey::Kind::kNcp)
    return {plan_.shard_of_ncp.at(i), ElementKey::ncp(plan_.local_ncp.at(i))};
  return {plan_.shard_of_link.at(i), ElementKey::link(plan_.local_link.at(i))};
}

void FederatedService::mark_failed(ElementKey e) {
  if (e.kind == ElementKey::Kind::kNcp || !plan_.is_boundary(e.index)) {
    const auto [s, local] = to_shard(e);
    shards_[s]->apply([local](Scheduler& sc) { sc.mark_failed(local); }).get();
  }
  {
    std::lock_guard<std::mutex> lock(cross_mu_);
    failed_.insert(e);
    update_plan_residual(e);
    ++cross_version_;
  }
  bump("federation.churn.failures");
}

void FederatedService::mark_recovered(ElementKey e) {
  if (e.kind == ElementKey::Kind::kNcp || !plan_.is_boundary(e.index)) {
    const auto [s, local] = to_shard(e);
    shards_[s]
        ->apply([local](Scheduler& sc) { sc.mark_recovered(local); })
        .get();
  }
  {
    std::lock_guard<std::mutex> lock(cross_mu_);
    failed_.erase(e);
    update_plan_residual(e);
    ++cross_version_;
  }
  bump("federation.churn.recoveries");
}

void FederatedService::repair(ElementKey e) {
  if (e.kind == ElementKey::Kind::kLink && plan_.is_boundary(e.index)) return;
  const auto [s, local] = to_shard(e);
  shards_[s]->apply([local](Scheduler& sc) { sc.repair(local); }).get();
  bump("federation.churn.repairs");
}

// ---------------------------------------------------------------------------
// Cross-shard admission: a plan on a pinned shard, then one reserve round

void FederatedService::cross_admit(Application app, Completion on_done,
                                   Clock::time_point dispatched) {
  // The plan runs on the scheduling thread of the pinned shard with the
  // shortest queue; local admissions there wait for it, and plans of
  // different apps run side by side on different shards.
  std::size_t planner = 0;
  std::size_t depth = std::numeric_limits<std::size_t>::max();
  for (const std::size_t s : pinned_shards(app)) {
    const std::size_t d = shards_[s]->queue_depth();
    if (d < depth) {
      planner = s;
      depth = d;
    }
  }
  auto plan = std::make_shared<CrossPlan>();
  plan->record.app = std::move(app);
  plan->started = dispatched;
  Completion reply = stamp_timeline(std::move(on_done), dispatched, plan);
  shards_[planner]->apply(
      [this, plan, dispatched](Scheduler&) {
        plan->started = Clock::now();
        plan_wait_us_.observe(us_between(dispatched, plan->started));
        plan_cross(*plan);
      },
      [this, plan, reply = std::move(reply)](ServiceResult r) {
        reserve_cross(plan, r, reply);
      });
}

void FederatedService::plan_cross(CrossPlan& plan) {
  const auto started = Clock::now();
  const Application& app = plan.record.app;
  const bool gr = app.qoe.cls == QoeClass::kGuaranteedRate;

  const auto reject = [&](std::string reason) {
    plan.refusal = std::move(reason);
    plan_us_.observe(us_between(started, Clock::now()));
  };

  // 1. Optimistic planning on the union sub-network of the pinned shards
  // (transit-closed: shards on a shortest boundary path between the pins
  // join too) against the federation's residual snapshot — the only view
  // that covers boundary links, and one that carries the pending holds
  // of rounds still in flight.  Planning on the closure instead of the
  // full site keeps a plan's provisioning cost proportional to the
  // regions an app actually spans, not the whole federation.  Shard-
  // internal reservations are invisible here; the reserve round is the
  // authoritative check.
  const UnionSubnet& sub = union_subnet(pinned_shards(app));
  std::map<CtId, NcpId> sub_pins;
  for (const auto& [ct, g] : app.pinned)
    sub_pins.emplace(ct, sub.to_sub_ncp.at(g));
  CapacitySnapshot start(sub.net);
  std::set<ElementKey> sub_failed;  // failed_ in sub ids
  {
    std::lock_guard<std::mutex> lock(cross_mu_);
    for (std::size_t j = 0; j < sub.to_global_ncp.size(); ++j)
      start.ncp(j) = plan_residual_.ncp(sub.to_global_ncp[j]);
    for (std::size_t l = 0; l < sub.to_global_link.size(); ++l)
      start.link(l) = plan_residual_.link(sub.to_global_link[l]);
    if (!failed_.empty()) {
      for (std::size_t j = 0; j < sub.to_global_ncp.size(); ++j)
        if (failed_.contains(ElementKey::ncp(sub.to_global_ncp[j])))
          sub_failed.insert(ElementKey::ncp(static_cast<NcpId>(j)));
      for (std::size_t l = 0; l < sub.to_global_link.size(); ++l)
        if (failed_.contains(ElementKey::link(sub.to_global_link[l])))
          sub_failed.insert(ElementKey::link(static_cast<LinkId>(l)));
    }
  }
  ProvisioningOptions popt;
  popt.failed = &sub_failed;
  popt.max_paths = kCrossMaxPaths;
  popt.diversity = options_.scheduler.path_diversity;
  popt.overlap_penalty = options_.scheduler.overlap_penalty;
  if (gr) popt.rate_cap = app.qoe.min_rate;
  const double min_rate = app.qoe.min_rate;
  const StopPredicate enough = [gr,
                                min_rate](const std::vector<PathInfo>& paths) {
    if (!gr) return false;  // BE: take every path up to the cap
    double sum = 0.0;
    for (const PathInfo& p : paths) sum += p.standalone_rate;
    return sum >= min_rate;
  };
  std::vector<PathInfo> paths = provision_paths(
      sub.net, *app.graph, sub_pins, start, assigner_, popt, enough);
  if (paths.empty()) {
    reject("cross-shard: no feasible task-assignment path");
    return;
  }

  // 2. Committed per-path rates: GR paths fill the guarantee in path
  // order; BE paths take a conservative fixed fraction of their
  // standalone rate (they cannot join any single shard's PF solve).
  std::vector<double> rates;
  double total_rate = 0.0;
  {
    std::vector<PathInfo> kept;
    double remaining = min_rate;
    for (PathInfo& p : paths) {
      double r = 0.0;
      if (gr) {
        r = std::min(p.standalone_rate, remaining);
        remaining -= r;
      } else {
        r = kCrossBeRateFraction * p.standalone_rate;
      }
      if (r <= kTol) continue;
      rates.push_back(r);
      total_rate += r;
      kept.push_back(std::move(p));
    }
    paths = std::move(kept);
    if (gr && remaining > kTol * (1.0 + min_rate)) {
      reject("cross-shard γ pre-gate: placeable rate " +
             std::to_string(total_rate) + " below guaranteed minimum " +
             std::to_string(min_rate));
      return;
    }
    if (paths.empty()) {
      reject("cross-shard: no path with positive rate");
      return;
    }
  }

  // 3. Back to full-site coordinates: every PathInfo leaves this loop with
  // global placements and element keys, and its rate-scaled per-unit load
  // lands in the app's one full-site aggregate, so the rest of the
  // protocol (and the stored CrossApp record) never sees sub ids.
  LoadMap load = LoadMap::zeros(net_);
  for (std::size_t k = 0; k < paths.size(); ++k) {
    PathInfo& p = paths[k];
    Placement global_placement(*app.graph);
    for (std::size_t i = 0; i < p.placement.ct_count(); ++i)
      if (p.placement.ct_placed(i))
        global_placement.place_ct(i, sub.to_global_ncp[p.placement.ct_host(i)]);
    for (std::size_t t = 0; t < p.placement.tt_count(); ++t) {
      if (!p.placement.tt_placed(t)) continue;
      std::vector<LinkId> route;
      route.reserve(p.placement.tt_route(t).size());
      for (const LinkId l : p.placement.tt_route(t))
        route.push_back(sub.to_global_link[l]);
      global_placement.place_tt(t, std::move(route));
    }
    std::vector<ElementKey> global_elements;
    global_elements.reserve(p.elements.size());
    for (const ElementKey& e : p.elements) {
      const auto i = static_cast<std::size_t>(e.index);
      if (e.kind == ElementKey::Kind::kNcp) {
        const NcpId g = sub.to_global_ncp[i];
        load.ncp_load(g) += p.load.ncp_load(e.index) * rates[k];
        global_elements.push_back(ElementKey::ncp(g));
      } else {
        const LinkId g = sub.to_global_link[i];
        load.link_load(g) += p.load.link_load(e.index) * rates[k];
        global_elements.push_back(ElementKey::link(g));
      }
    }
    p.placement = std::move(global_placement);
    p.load = LoadMap();
    p.elements = std::move(global_elements);
  }

  // 4. Predicted availability gate (eq. (7) for GR, any-path for BE).
  std::vector<std::vector<ElementKey>> element_sets;
  element_sets.reserve(paths.size());
  for (const PathInfo& p : paths) element_sets.push_back(p.elements);
  const double availability =
      gr ? min_rate_availability(net_, element_sets, rates, min_rate)
         : availability_any(net_, element_sets);
  const double required = gr ? app.qoe.min_rate_availability
                             : app.qoe.availability;
  if (availability + 1e-12 < required) {
    reject("cross-shard availability " + std::to_string(availability) +
           " below requested " + std::to_string(required));
    return;
  }

  std::vector<ElementKey> elements;
  for (const PathInfo& p : paths)
    elements.insert(elements.end(), p.elements.begin(), p.elements.end());
  std::sort(elements.begin(), elements.end());
  elements.erase(std::unique(elements.begin(), elements.end()),
                 elements.end());

  // 5. Boundary links belong to no shard — the federation residual is
  // authoritative for them, so re-check under the lock (planning ran on
  // a copy that concurrent churn, another plan or another round's hold
  // may have invalidated), and take the app's pending hold in the same
  // critical section: later plans see it, so no boundary link is booked
  // twice.  The record is filled first: nothing may throw once the hold
  // is taken.
  CrossApp& record = plan.record;
  record.paths = std::move(paths);
  record.path_rates = std::move(rates);
  record.total_rate = total_rate;
  record.availability = availability;
  record.load = std::move(load);
  record.elements = std::move(elements);
  std::string refusal;
  {
    std::lock_guard<std::mutex> lock(cross_mu_);
    for (const ElementKey& e : record.elements) {
      if (e.kind != ElementKey::Kind::kLink || !plan_.is_boundary(e.index))
        continue;
      if (failed_.contains(e)) {
        refusal = "cross-shard: boundary link " + net_.link(e.index).name +
                  " is failed";
        break;
      }
      const double have = plan_residual_.link(e.index);
      const double want = record.load.link_load(e.index);
      if (want > have + kTol * (1.0 + have)) {
        refusal = "cross-shard: boundary link " + net_.link(e.index).name +
                  " lacks capacity (" + std::to_string(want) + " > " +
                  std::to_string(have) + ")";
        break;
      }
    }
    if (refusal.empty()) hold(record.elements, record.load, +1);
  }
  if (!refusal.empty()) {
    reject(std::move(refusal));
    return;
  }
  plan_us_.observe(us_between(started, Clock::now()));
}

void FederatedService::reserve_cross(const std::shared_ptr<CrossPlan>& plan,
                                     const ServiceResult& planned,
                                     const Completion& on_done) {
  CrossApp& record = plan->record;
  const std::string name = record.app.name;
  // A plan its shard never ran (queue_full, shutdown) or that threw
  // took no hold; neither did one that refused.
  std::string refusal = plan->refusal;
  if (planned.status != ServiceResult::Status::kApplied)
    refusal = "cross-shard plan interrupted: " + planned.reason;
  if (!refusal.empty()) {
    reject_cross(name, record.app.qoe.cls == QoeClass::kGuaranteedRate,
                 "federation.cross.rejected", refusal, on_done);
    return;
  }

  // 6. Split the load into per-shard fragments (shard-local ids).
  std::map<std::size_t, Fragment> fragments;
  for (const ElementKey& e : record.elements) {
    if (e.kind == ElementKey::Kind::kNcp) {
      const std::size_t s =
          plan_.shard_of_ncp.at(static_cast<std::size_t>(e.index));
      auto [it, inserted] = fragments.try_emplace(s);
      Fragment& frag = it->second;
      if (inserted) frag.load = LoadMap::zeros(plan_.shards[s].net);
      const NcpId local = plan_.local_ncp.at(static_cast<std::size_t>(e.index));
      frag.load.ncp_load(local) = record.load.ncp_load(e.index);
      frag.elements.push_back(ElementKey::ncp(local));
    } else {
      if (plan_.is_boundary(e.index)) continue;
      const std::size_t s =
          plan_.shard_of_link.at(static_cast<std::size_t>(e.index));
      auto [it, inserted] = fragments.try_emplace(s);
      Fragment& frag = it->second;
      if (inserted) frag.load = LoadMap::zeros(plan_.shards[s].net);
      const LinkId local =
          plan_.local_link.at(static_cast<std::size_t>(e.index));
      frag.load.link_load(local) = record.load.link_load(e.index);
      frag.elements.push_back(ElementKey::link(local));
    }
  }

  auto round = std::make_shared<Round>();
  auto frags = std::make_shared<std::vector<Fragment>>();
  for (auto& [s, frag] : fragments) {
    round->shards.push_back(s);
    frags->push_back(std::move(frag));
  }
  record.shards = round->shards;

  // 7. Reserve on every touched shard.  Each hold is taken atomically
  // against the shard's authoritative residual on the shard's own
  // scheduling thread; the last reply runs finish_admit().
  send_round(
      round,
      [name, frags, round = round.get()](Scheduler& sc, std::size_t i) {
        const Fragment& frag = (*frags)[i];
        round->held[i] = sc.reserve_external(name, frag.load, frag.elements,
                                             &round->refusals[i]);
      },
      [this, round, plan, on_done] { finish_admit(round, plan, on_done); });
}

void FederatedService::finish_admit(const std::shared_ptr<Round>& round,
                                    const std::shared_ptr<CrossPlan>& plan,
                                    const Completion& on_done) {
  round_us_.observe(us_between(round->sent, round->answered));
  CrossApp& record = plan->record;
  const std::string name = record.app.name;
  const bool gr = record.app.qoe.cls == QoeClass::kGuaranteedRate;
  const double rate = record.total_rate;
  const double availability = record.availability;
  const std::size_t paths = record.paths.size();
  const std::size_t shards = record.shards.size();

  // A request a shard never ran (queue_full, shutdown) refuses first,
  // then a reserve a shard refused, each in shard order.
  std::string refusal;
  for (const ServiceResult& r : round->replies)
    if (r.status != ServiceResult::Status::kApplied) {
      refusal = "cross-shard reserve interrupted: " + r.reason;
      break;
    }
  for (std::size_t i = 0; refusal.empty() && i < round->shards.size(); ++i)
    if (!round->held[i])
      refusal = "cross-shard reserve rejected by shard " +
                std::to_string(round->shards[i]) + ": " + round->refusals[i];

  {
    std::lock_guard<std::mutex> lock(cross_mu_);
    if (refusal.empty())
      cross_load_.add_scaled_at(record.elements, record.load, 1.0);
    hold(record.elements, record.load, -1);
    if (refusal.empty()) {
      cross_.emplace(name, std::move(record));
      registry_.gauge("federation.cross.apps")
          .set(static_cast<double>(cross_.size()));
      ++cross_version_;
    }
  }

  if (!refusal.empty()) {
    // Release wherever the reserve ran and may hold: every shard that
    // accepted, and any whose control function failed part-way.
    std::vector<std::size_t> release;
    for (std::size_t i = 0; i < round->shards.size(); ++i) {
      const ServiceResult::Status st = round->replies[i].status;
      if (st == ServiceResult::Status::kApplied
              ? round->held[i] != 0
              : st == ServiceResult::Status::kRejected)
        release.push_back(round->shards[i]);
    }
    release_round(name, std::move(release), [this, name, gr, refusal,
                                             on_done] {
      reject_cross(name, gr, "federation.cross.aborted_reserve", refusal,
                   on_done);
    });
    return;
  }

  // Every touched shard holds its fragment: the app is admitted.  An
  // element failing from here on is ordinary churn — the holds stay until
  // the app is removed, like a GR reservation on a dead path.
  bump("federation.cross.admitted");
  log_decision(name, gr,
               "cross-shard admitted over " + std::to_string(shards) +
                   " shard(s)",
               rate, availability, paths);
  ServiceResult r;
  r.status = ServiceResult::Status::kAdmitted;
  r.rate = rate;
  r.availability = availability;
  r.paths = paths;
  end_round(name, /*gone=*/false, [&] { on_done(std::move(r)); });
}

void FederatedService::cross_remove(const std::string& name,
                                    Completion on_done) {
  std::vector<std::size_t> touched;
  bool gr = false;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(cross_mu_);
    const auto it = cross_.find(name);
    found = it != cross_.end();
    if (found) {
      touched = it->second.shards;
      gr = it->second.app.qoe.cls == QoeClass::kGuaranteedRate;
    }
  }
  if (!found) {
    end_round(name, /*gone=*/true, [&] {
      complete(on_done, ServiceResult::Status::kNotFound,
               "no cross-shard application '" + name + "'");
    });
    return;
  }
  release_round(name, std::move(touched), [this, name, gr, on_done] {
    {
      std::lock_guard<std::mutex> lock(cross_mu_);
      const auto it = cross_.find(name);
      if (it != cross_.end()) {
        cross_load_.add_scaled_at(it->second.elements, it->second.load, -1.0);
        for (const ElementKey& e : it->second.elements)
          update_plan_residual(e);
        cross_.erase(it);
      }
      registry_.gauge("federation.cross.apps")
          .set(static_cast<double>(cross_.size()));
      ++cross_version_;
    }
    bump("federation.cross.removes");
    log_decision(name, gr, "cross-shard removed, holds released", 0.0, 0.0,
                 0);
    end_round(name, /*gone=*/true, [&] {
      complete(on_done, ServiceResult::Status::kRemoved, "");
    });
  });
}

void FederatedService::reject_cross(const std::string& name, bool gr,
                                    const char* counter,
                                    const std::string& reason,
                                    const Completion& on_done) {
  bump(counter);
  log_decision(name, gr, reason, 0.0, 0.0, 0);
  end_round(name, /*gone=*/true, [&] {
    complete(on_done, ServiceResult::Status::kRejected, reason);
  });
}

void FederatedService::send_round(
    const std::shared_ptr<Round>& round,
    std::function<void(Scheduler&, std::size_t)> fn,
    std::function<void()> then) {
  const std::size_t n = round->shards.size();
  round->replies.resize(n);
  round->refusals.resize(n);
  round->held.assign(n, 0);
  round->waiting = n;
  round->sent = round->answered = Clock::now();
  if (n == 0) {
    then();
    return;
  }
  auto finish = std::make_shared<std::function<void()>>(std::move(then));
  for (std::size_t i = 0; i < n; ++i)
    shards_[round->shards[i]]->apply(
        [fn, i](Scheduler& sc) { fn(sc, i); },
        [round, finish, i](ServiceResult r) {
          // A shard's scheduling thread (or the sender, for a bounce):
          // record the reply and, on the last one, take the next step.
          round->replies[i] = std::move(r);
          if (round->waiting.fetch_sub(1) == 1) {
            round->answered = Clock::now();
            (*finish)();
          }
        });
}

void FederatedService::release_round(const std::string& name,
                                     std::vector<std::size_t> shards,
                                     std::function<void()> then) {
  auto round = std::make_shared<Round>();
  round->shards = std::move(shards);
  send_round(
      round,
      [name](Scheduler& sc, std::size_t) { sc.release_external(name); },
      std::move(then));
}

void FederatedService::end_round(const std::string& name, bool gone,
                                 const std::function<void()>& reply) {
  Completion carry;
  std::deque<Completion> parked;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    const auto it = rounds_.find(name);
    if (!gone && !it->second.empty()) {
      carry = std::move(it->second.front());
      it->second.pop_front();
    } else {
      parked = std::move(it->second);
      rounds_.erase(it);
      if (gone) route_.erase(name);
      cross_in_flight_.set(static_cast<double>(rounds_.size()));
      ++replying_;
    }
  }
  reply();
  if (carry) {
    // The first remove parked behind the admission carries its round on.
    cross_remove(name, std::move(carry));
    return;
  }
  // The app is gone, so every remove parked behind it finds nothing.  A
  // loop, not a recursion: a client can park any number of them.
  for (const Completion& c : parked)
    complete(c, ServiceResult::Status::kNotFound,
             "no cross-shard application '" + name + "'");
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    --replying_;
  }
  idle_cv_.notify_all();
}

void FederatedService::hold(const std::vector<ElementKey>& elements,
                            const LoadMap& load, int sign) {
  held_.add_scaled_at(elements, load, static_cast<double>(sign));
  for (const ElementKey& e : elements) {
    const auto i = static_cast<std::size_t>(e.index);
    const bool ncp = e.kind == ElementKey::Kind::kNcp;
    std::size_t& holds = ncp ? held_ncps_[i] : held_links_[i];
    holds = sign > 0 ? holds + 1 : holds - 1;
    // An add and a subtract do not round-trip in floating point: with no
    // hold left, the element reads exactly capacity − cross_load_ again.
    if (holds == 0) {
      if (ncp)
        held_.ncp_load(e.index) = ResourceVector(net_.schema().size());
      else
        held_.link_load(e.index) = 0.0;
    }
    update_plan_residual(e);
  }
}

void FederatedService::update_plan_residual(const ElementKey& e) {
  // Capacity minus committed and pending cross load, clamped at zero,
  // zeroed if failed.  With no hold pending (held_ exactly 0 there) it
  // reads capacity minus the committed load alone.
  const double keep = failed_.contains(e) ? 0.0 : 1.0;
  if (e.kind == ElementKey::Kind::kNcp) {
    ResourceVector v = net_.ncp(e.index).capacity;
    v -= cross_load_.ncp_load(e.index);
    v -= held_.ncp_load(e.index);
    v.clamp_nonnegative();
    v *= keep;
    plan_residual_.ncp(e.index) = std::move(v);
  } else {
    double v = net_.link(e.index).bandwidth - cross_load_.link_load(e.index) -
               held_.link_load(e.index);
    if (v < 0) v = 0;
    plan_residual_.link(e.index) = v * keep;
  }
}

const FederatedService::UnionSubnet& FederatedService::union_subnet(
    const std::vector<std::size_t>& shards) {
  // Built under the lock: the build reads the shard networks' lazily
  // built adjacency, which must not race either.
  std::lock_guard<std::mutex> lock(subnets_mu_);
  const auto cached = subnets_.find(shards);
  if (cached != subnets_.end()) return cached->second;

  // Transit closure: the pinned shards plus every shard on a shortest
  // boundary-link path between them.  On a backbone-ring site two distant
  // regions only connect through the hubs between them, so a placement
  // may have to relay through shards that own no pin — those transit
  // shards join the planning graph (and, if the placement lands load on
  // them, the reserve round) like any other touched shard.
  std::set<std::size_t> closure(shards.begin(), shards.end());
  {
    std::vector<std::set<std::size_t>> adj(plan_.shard_count());
    for (const LinkId l : plan_.boundary_links) {
      const Link& lk = net_.link(l);
      const std::size_t sa = plan_.shard_of_ncp[static_cast<std::size_t>(lk.a)];
      const std::size_t sb = plan_.shard_of_ncp[static_cast<std::size_t>(lk.b)];
      adj[sa].insert(sb);
      adj[sb].insert(sa);
    }
    constexpr std::size_t kUnreached = static_cast<std::size_t>(-1);
    std::vector<std::size_t> parent(plan_.shard_count(), kUnreached);
    std::deque<std::size_t> frontier;
    const std::size_t root = shards.front();
    parent[root] = root;
    frontier.push_back(root);
    while (!frontier.empty()) {
      const std::size_t v = frontier.front();
      frontier.pop_front();
      for (const std::size_t w : adj[v])
        if (parent[w] == kUnreached) {
          parent[w] = v;
          frontier.push_back(w);
        }
    }
    for (const std::size_t t : shards) {
      if (parent[t] == kUnreached) continue;  // disconnected: reject later
      for (std::size_t v = t; v != root; v = parent[v]) closure.insert(v);
    }
  }

  // Pinned shards contribute every NCP: any of them may host a CT.  A
  // transit shard only relays, so it contributes just its *backbone* —
  // the NCPs on shortest intra-shard paths between its boundary-link
  // endpoints (on the soak site: the region hubs, not the leaves).
  // Planning cost then scales with the pinned regions plus a few relay
  // hubs, not with every site a transit shard happens to own.
  std::map<std::size_t, std::set<NcpId>> border;  // shard -> global NCPs
  for (const LinkId l : plan_.boundary_links) {
    const Link& lk = net_.link(l);
    border[plan_.shard_of_ncp[static_cast<std::size_t>(lk.a)]].insert(lk.a);
    border[plan_.shard_of_ncp[static_cast<std::size_t>(lk.b)]].insert(lk.b);
  }
  const std::set<std::size_t> pinned(shards.begin(), shards.end());

  UnionSubnet sub;
  sub.net = Network(net_.schema());
  for (const std::size_t s : closure) {
    const auto& shard = plan_.shards[s];
    std::set<NcpId> keep;  // local ids, ascending for determinism
    if (pinned.count(s)) {
      for (NcpId j = 0; j < static_cast<NcpId>(shard.net.ncp_count()); ++j)
        keep.insert(j);
    } else {
      std::vector<NcpId> gates;  // boundary-incident NCPs, local ids
      for (const NcpId g : border[s])
        gates.push_back(plan_.local_ncp.at(static_cast<std::size_t>(g)));
      std::sort(gates.begin(), gates.end());
      keep.insert(gates.begin(), gates.end());
      // Shortest gate-to-gate paths (direction-blind BFS: the relay view
      // over-includes for directed links, but the widest-path planner
      // still honors direction on the assembled sub-network).
      for (std::size_t i = 0; i + 1 < gates.size(); ++i) {
        std::vector<NcpId> par(shard.net.ncp_count(), kInvalidId);
        std::deque<NcpId> frontier{gates[i]};
        par[static_cast<std::size_t>(gates[i])] = gates[i];
        while (!frontier.empty()) {
          const NcpId v = frontier.front();
          frontier.pop_front();
          for (const LinkId l : shard.net.incident_links(v)) {
            const NcpId w = shard.net.other_end(l, v);
            if (par[static_cast<std::size_t>(w)] != kInvalidId) continue;
            par[static_cast<std::size_t>(w)] = v;
            frontier.push_back(w);
          }
        }
        for (std::size_t j = i + 1; j < gates.size(); ++j) {
          if (par[static_cast<std::size_t>(gates[j])] == kInvalidId) continue;
          for (NcpId v = gates[j]; v != gates[i];
               v = par[static_cast<std::size_t>(v)])
            keep.insert(v);
        }
      }
    }
    for (const NcpId local : keep) {
      const NcpId g = shard.global_ncps[static_cast<std::size_t>(local)];
      const Ncp& n = net_.ncp(g);
      const NcpId j =
          sub.net.add_ncp(n.name, n.capacity, n.fail_prob, n.region);
      sub.to_global_ncp.push_back(g);
      sub.to_sub_ncp.emplace(g, j);
    }
  }
  for (std::size_t l = 0; l < net_.link_count(); ++l) {
    const Link& lk = net_.link(l);
    const auto a = sub.to_sub_ncp.find(lk.a);
    const auto b = sub.to_sub_ncp.find(lk.b);
    if (a == sub.to_sub_ncp.end() || b == sub.to_sub_ncp.end()) continue;
    if (lk.directed)
      sub.net.add_directed_link(lk.name, a->second, b->second, lk.bandwidth,
                                lk.fail_prob);
    else
      sub.net.add_link(lk.name, a->second, b->second, lk.bandwidth,
                       lk.fail_prob);
    sub.to_global_link.push_back(l);
  }
  UnionSubnet& built = subnets_.emplace(shards, std::move(sub)).first->second;
  // Network::incident_links builds its adjacency on the first call; make
  // that call here, so plans on other threads only read it.
  if (built.net.ncp_count() > 0) built.net.incident_links(0);
  return built;
}

Application FederatedService::to_local(const Application& app) const {
  Application local = app;
  local.pinned.clear();
  for (const auto& [ct, ncp] : app.pinned)
    local.pinned.emplace(
        ct, plan_.local_ncp.at(static_cast<std::size_t>(ncp)));
  return local;
}

std::vector<std::size_t> FederatedService::pinned_shards(
    const Application& app) const {
  std::vector<std::size_t> out;
  for (const auto& [ct, ncp] : app.pinned)
    out.push_back(plan_.shard_of_ncp.at(static_cast<std::size_t>(ncp)));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void FederatedService::bump(const char* name, std::uint64_t n) {
  registry_.counter(name).add(n);
}

void FederatedService::log_decision(const std::string& app, bool guaranteed,
                                    const std::string& reason, double rate,
                                    double availability, std::size_t paths) {
  if (obs::DecisionLog* log = obs::decision_log(); log != nullptr)
    log->record(obs::DecisionKind::kFederate, app, guaranteed ? "GR" : "BE",
                reason, rate, availability, paths);
}

void FederatedService::complete(const Completion& on_done,
                                ServiceResult::Status status,
                                std::string reason) {
  ServiceResult r;
  r.status = status;
  r.reason = std::move(reason);
  on_done(std::move(r));
}

}  // namespace sparcle::federation
