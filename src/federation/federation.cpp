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

/// One shard's outcome of its reserve_external call, written on the
/// shard's scheduling thread and read by the router after the apply
/// future resolved (the future is the synchronization edge).
struct ReserveResult {
  bool ok{false};
  std::string why;
};

}  // namespace

FederatedService::FederatedService(Network net, FederationOptions options)
    : net_(std::move(net)),
      plan_(make_shard_plan(net_, options.shards)),
      options_(std::move(options)),
      // The shards' assigner options, policy included, so cross-shard
      // apps are ranked by the same rule as shard-local ones.
      assigner_(options_.scheduler.assigner_options_with_policy()),
      cross_load_(LoadMap::zeros(net_)),
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
  router_ = std::thread([this] { router_loop(); });
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
  {
    std::lock_guard<std::mutex> lock(router_mu_);
    if (stopping_) {
      ServiceResult r;
      r.status = ServiceResult::Status::kShutdown;
      r.reason = "service is stopping";
      on_done(std::move(r));
      return;
    }
  }
  dispatch_submit(std::move(app), std::move(on_done));
}

void FederatedService::dispatch_submit(Application app, Completion on_done) {
  try {
    app.validate();
  } catch (const std::exception& e) {
    bump("federation.invalid");
    complete_rejected(on_done, e.what());
    return;
  }

  const std::vector<std::size_t> touched = pinned_shards(app);
  const bool cross = touched.size() > 1;
  // Unpinned apps (no sources/sinks — degenerate but valid graphs) have
  // no locality signal; shard 0 hosts them.
  const std::size_t home = touched.empty() ? 0 : touched.front();

  {
    std::lock_guard<std::mutex> lock(route_mu_);
    if (route_.contains(app.name)) {
      bump("federation.duplicates");
      complete_rejected(on_done, "duplicate application name '" + app.name +
                                     "' across the federation");
      return;
    }
    route_.emplace(app.name, cross ? kCrossRoute : home);
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
  auto shared_app = std::make_shared<Application>(std::move(app));
  const auto enqueued = std::chrono::steady_clock::now();
  enqueue_job(
      [this, shared_app, enqueued, on_done = std::move(on_done)]() mutable {
        cross_admit(std::move(*shared_app),
                    stamp_timeline(std::move(on_done), enqueued));
      });
}

FederatedService::Completion FederatedService::stamp_timeline(
    Completion on_done, std::chrono::steady_clock::time_point enqueued) {
  // Cross-shard requests never pass through a SchedulerService queue, so
  // the federation fills the wire's request-tracing contract itself:
  // queue_us is the wait for the router thread, apply_us is the
  // cross-shard protocol's own work (there is no batch or shared PF solve
  // to report).  Called at job start on the router thread; the stamp
  // wraps the completion, so every cross outcome — admitted, rejected,
  // aborted, removed — carries a timeline.
  using Clock = std::chrono::steady_clock;
  const auto started = Clock::now();
  const std::uint64_t trace =
      next_trace_.fetch_add(1, std::memory_order_relaxed);
  return [on_done = std::move(on_done), enqueued, started,
          trace](ServiceResult r) {
    const auto done = Clock::now();
    const auto us = [](Clock::duration d) {
      return std::chrono::duration<double, std::micro>(d).count();
    };
    r.timeline.trace_id = trace;
    r.timeline.queue_us = us(started - enqueued);
    r.timeline.apply_us = us(done - started);
    r.latency_us = us(done - enqueued);
    on_done(std::move(r));
  };
}

void FederatedService::remove_async(std::string app_name, Completion on_done) {
  std::size_t route = 0;
  {
    std::lock_guard<std::mutex> lock(router_mu_);
    if (stopping_) {
      ServiceResult r;
      r.status = ServiceResult::Status::kShutdown;
      r.reason = "service is stopping";
      on_done(std::move(r));
      return;
    }
  }
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    const auto it = route_.find(app_name);
    if (it == route_.end()) {
      ServiceResult r;
      r.status = ServiceResult::Status::kNotFound;
      r.reason = "no application '" + app_name + "' in the federation";
      on_done(std::move(r));
      return;
    }
    route = it->second;
  }

  if (route != kCrossRoute) {
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
    return;
  }

  auto shared_name = std::make_shared<std::string>(std::move(app_name));
  const auto enqueued = std::chrono::steady_clock::now();
  enqueue_job(
      [this, shared_name, enqueued, on_done = std::move(on_done)]() mutable {
        cross_remove(*shared_name,
                     stamp_timeline(std::move(on_done), enqueued));
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
    std::unique_lock<std::mutex> lock(router_mu_);
    idle_cv_.wait(lock, [this] { return jobs_.empty() && !router_busy_; });
  }
  for (const auto& shard : shards_) shard->drain();
}

void FederatedService::stop() {
  {
    std::lock_guard<std::mutex> lock(router_mu_);
    if (stopping_ && !router_.joinable()) return;
    stopping_ = true;
  }
  router_cv_.notify_all();
  if (router_.joinable()) router_.join();
  for (const auto& shard : shards_) shard->stop();
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
  const obs::MetricsSnapshot fed = registry_.snapshot();
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
  return obs::to_prometheus(merged);
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
    rebuild_plan_residual();
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
    rebuild_plan_residual();
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
// Cross-shard admission in one reserve round (router thread)

void FederatedService::cross_admit(Application app, Completion on_done) {
  const std::string name = app.name;
  const bool gr = app.qoe.cls == QoeClass::kGuaranteedRate;

  const auto reject = [&](const char* counter, const std::string& reason) {
    bump(counter);
    {
      std::lock_guard<std::mutex> lock(route_mu_);
      route_.erase(name);
    }
    log_decision(name, gr, reason, 0.0, 0.0, 0);
    complete_rejected(on_done, reason);
  };

  // 1. Optimistic planning on the union sub-network of the pinned shards
  // (transit-closed: shards on a shortest boundary path between the pins
  // join too) against the federation's residual snapshot — the only view
  // that covers boundary links.  Planning on the closure instead of the
  // full site keeps the router's provisioning cost proportional to the
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
    reject("federation.cross.rejected",
           "cross-shard: no feasible task-assignment path");
    return;
  }

  // Back to full-site coordinates: every PathInfo leaves this loop with
  // global placements, element keys, and per-unit loads, so the rest of
  // the protocol (and the stored CrossApp record) never sees sub ids.
  for (PathInfo& p : paths) {
    Placement global_placement(*app.graph);
    for (std::size_t i = 0; i < p.placement.ct_count(); ++i)
      if (p.placement.ct_placed(i))
        global_placement.place_ct(i, sub.to_global_ncp[p.placement.ct_host(i)]);
    for (std::size_t k = 0; k < p.placement.tt_count(); ++k) {
      if (!p.placement.tt_placed(k)) continue;
      std::vector<LinkId> route;
      route.reserve(p.placement.tt_route(k).size());
      for (const LinkId l : p.placement.tt_route(k))
        route.push_back(sub.to_global_link[l]);
      global_placement.place_tt(k, std::move(route));
    }
    LoadMap global_load = LoadMap::zeros(net_);
    std::vector<ElementKey> global_elements;
    global_elements.reserve(p.elements.size());
    for (const ElementKey& e : p.elements) {
      if (e.kind == ElementKey::Kind::kNcp) {
        const NcpId g = sub.to_global_ncp[static_cast<std::size_t>(e.index)];
        global_load.ncp_load(g) = p.load.ncp_load(e.index);
        global_elements.push_back(ElementKey::ncp(g));
      } else {
        const LinkId g = sub.to_global_link[static_cast<std::size_t>(e.index)];
        global_load.link_load(g) = p.load.link_load(e.index);
        global_elements.push_back(ElementKey::link(g));
      }
    }
    p.placement = std::move(global_placement);
    p.load = std::move(global_load);
    p.elements = std::move(global_elements);
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
      reject("federation.cross.rejected",
             "cross-shard γ pre-gate: placeable rate " +
                 std::to_string(total_rate) + " below guaranteed minimum " +
                 std::to_string(min_rate));
      return;
    }
    if (paths.empty()) {
      reject("federation.cross.rejected",
             "cross-shard: no path with positive rate");
      return;
    }
  }

  // 3. Predicted availability gate (eq. (7) for GR, any-path for BE).
  std::vector<std::vector<ElementKey>> element_sets;
  element_sets.reserve(paths.size());
  for (const PathInfo& p : paths) element_sets.push_back(p.elements);
  const double availability =
      gr ? min_rate_availability(net_, element_sets, rates, min_rate)
         : availability_any(net_, element_sets);
  const double required = gr ? app.qoe.min_rate_availability
                             : app.qoe.availability;
  if (availability + 1e-12 < required) {
    reject("federation.cross.rejected",
           "cross-shard availability " + std::to_string(availability) +
               " below requested " + std::to_string(required));
    return;
  }

  // 4. Aggregate load and element footprint on the full network.
  LoadMap load = LoadMap::zeros(net_);
  for (std::size_t k = 0; k < paths.size(); ++k)
    load.add_scaled_at(paths[k].elements, paths[k].load, rates[k]);
  std::vector<ElementKey> elements;
  for (const PathInfo& p : paths)
    elements.insert(elements.end(), p.elements.begin(), p.elements.end());
  std::sort(elements.begin(), elements.end());
  elements.erase(std::unique(elements.begin(), elements.end()),
                 elements.end());

  // 5. Boundary links belong to no shard — the federation residual is
  // authoritative for them, so re-check under the lock (planning ran on
  // a copy that concurrent churn may have invalidated).
  {
    std::lock_guard<std::mutex> lock(cross_mu_);
    for (const ElementKey& e : elements) {
      if (e.kind != ElementKey::Kind::kLink || !plan_.is_boundary(e.index))
        continue;
      if (failed_.contains(e)) {
        reject("federation.cross.rejected",
               "cross-shard: boundary link " + net_.link(e.index).name +
                   " is failed");
        return;
      }
      const double have = plan_residual_.link(e.index);
      const double want = load.link_load(e.index);
      if (want > have + kTol * (1.0 + have)) {
        reject("federation.cross.rejected",
               "cross-shard: boundary link " + net_.link(e.index).name +
                   " lacks capacity (" + std::to_string(want) + " > " +
                   std::to_string(have) + ")");
        return;
      }
    }
  }

  // 6. Split the load into per-shard fragments (shard-local ids).
  std::map<std::size_t, Fragment> fragments;
  for (const ElementKey& e : elements) {
    if (e.kind == ElementKey::Kind::kNcp) {
      const std::size_t s =
          plan_.shard_of_ncp.at(static_cast<std::size_t>(e.index));
      auto [it, inserted] = fragments.try_emplace(s);
      Fragment& frag = it->second;
      if (inserted) frag.load = LoadMap::zeros(plan_.shards[s].net);
      const NcpId local = plan_.local_ncp.at(static_cast<std::size_t>(e.index));
      frag.load.ncp_load(local) = load.ncp_load(e.index);
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
      frag.load.link_load(local) = load.link_load(e.index);
      frag.elements.push_back(ElementKey::link(local));
    }
  }

  std::vector<std::size_t> touched;
  touched.reserve(fragments.size());
  for (const auto& [s, frag] : fragments) touched.push_back(s);

  // 7. Reserve on every touched shard.  Each hold is taken atomically
  // against the shard's authoritative residual on the shard's own
  // scheduling thread; the futures are the barrier.  Any refusal releases
  // the hold on every shard.
  std::vector<std::pair<std::size_t, std::shared_ptr<ReserveResult>>> reserves;
  std::vector<std::future<ServiceResult>> futures;
  for (auto& [s, frag] : fragments) {
    auto fragp = std::make_shared<Fragment>(std::move(frag));
    auto res = std::make_shared<ReserveResult>();
    futures.push_back(shards_[s]->apply([name, fragp, res](Scheduler& sc) {
      res->ok = sc.reserve_external(name, fragp->load, fragp->elements,
                                    &res->why);
    }));
    reserves.emplace_back(s, res);
  }
  std::string refusal;
  for (auto& f : futures) {
    const ServiceResult r = f.get();
    if (r.status != ServiceResult::Status::kApplied && refusal.empty())
      refusal = "cross-shard reserve interrupted: " + r.reason;
  }
  for (const auto& [s, res] : reserves)
    if (!res->ok && refusal.empty())
      refusal = "cross-shard reserve rejected by shard " + std::to_string(s) +
                ": " + res->why;
  if (!refusal.empty()) {
    release_on_shards(name, touched);
    reject("federation.cross.aborted_reserve", refusal);
    return;
  }

  // 8. Every touched shard holds its fragment: the app is admitted.  An
  // element failing from here on is ordinary churn — the holds stay until
  // the app is removed, like a GR reservation on a dead path.
  CrossApp record;
  record.app = std::move(app);
  record.paths = std::move(paths);
  record.path_rates = std::move(rates);
  record.total_rate = total_rate;
  record.availability = availability;
  record.shards = touched;
  record.load = std::move(load);
  record.elements = std::move(elements);
  std::size_t path_count = record.paths.size();
  {
    std::lock_guard<std::mutex> lock(cross_mu_);
    cross_load_.add_scaled_at(record.elements, record.load, 1.0);
    rebuild_plan_residual();
    cross_.emplace(name, std::move(record));
    registry_.gauge("federation.cross.apps")
        .set(static_cast<double>(cross_.size()));
    ++cross_version_;
  }
  bump("federation.cross.admitted");
  log_decision(name, gr,
               "cross-shard admitted over " + std::to_string(touched.size()) +
                   " shard(s)",
               total_rate, availability, path_count);
  ServiceResult r;
  r.status = ServiceResult::Status::kAdmitted;
  r.rate = total_rate;
  r.availability = availability;
  r.paths = path_count;
  on_done(std::move(r));
}

void FederatedService::cross_remove(const std::string& name,
                                    Completion on_done) {
  std::vector<std::size_t> touched;
  bool gr = false;
  {
    std::lock_guard<std::mutex> lock(cross_mu_);
    const auto it = cross_.find(name);
    if (it == cross_.end()) {
      ServiceResult r;
      r.status = ServiceResult::Status::kNotFound;
      r.reason = "no cross-shard application '" + name + "'";
      on_done(std::move(r));
      return;
    }
    touched = it->second.shards;
    gr = it->second.app.qoe.cls == QoeClass::kGuaranteedRate;
  }
  release_on_shards(name, touched);
  {
    std::lock_guard<std::mutex> lock(cross_mu_);
    const auto it = cross_.find(name);
    if (it != cross_.end()) {
      cross_load_.add_scaled_at(it->second.elements, it->second.load, -1.0);
      rebuild_plan_residual();
      cross_.erase(it);
    }
    registry_.gauge("federation.cross.apps")
        .set(static_cast<double>(cross_.size()));
    ++cross_version_;
  }
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    route_.erase(name);
  }
  bump("federation.cross.removes");
  log_decision(name, gr, "cross-shard removed, holds released", 0.0, 0.0, 0);
  ServiceResult r;
  r.status = ServiceResult::Status::kRemoved;
  on_done(std::move(r));
}

void FederatedService::release_on_shards(
    const std::string& name, const std::vector<std::size_t>& shards) {
  std::vector<std::future<ServiceResult>> futures;
  for (const std::size_t s : shards)
    futures.push_back(shards_[s]->apply(
        [name](Scheduler& sc) { sc.release_external(name); }));
  for (auto& f : futures) f.get();
}

void FederatedService::rebuild_plan_residual() {
  plan_residual_ = CapacitySnapshot(net_);
  plan_residual_.subtract_scaled(cross_load_, 1.0);
  if (!failed_.empty())
    plan_residual_.scale_elements(
        std::vector<ElementKey>(failed_.begin(), failed_.end()), 0.0);
}

const FederatedService::UnionSubnet& FederatedService::union_subnet(
    const std::vector<std::size_t>& shards) {
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
  return subnets_.emplace(shards, std::move(sub)).first->second;
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

// ---------------------------------------------------------------------------
// Router plumbing

void FederatedService::enqueue_job(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(router_mu_);
    jobs_.push_back(std::move(job));
  }
  router_cv_.notify_one();
}

void FederatedService::router_loop() {
  std::unique_lock<std::mutex> lock(router_mu_);
  for (;;) {
    router_cv_.wait(lock, [this] { return !jobs_.empty() || stopping_; });
    if (jobs_.empty() && stopping_) return;
    std::function<void()> job = std::move(jobs_.front());
    jobs_.pop_front();
    router_busy_ = true;
    lock.unlock();
    job();
    lock.lock();
    router_busy_ = false;
    if (jobs_.empty()) idle_cv_.notify_all();
  }
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

void FederatedService::complete_rejected(const Completion& on_done,
                                         const std::string& reason) {
  ServiceResult r;
  r.status = ServiceResult::Status::kRejected;
  r.reason = reason;
  on_done(std::move(r));
}

}  // namespace sparcle::federation
