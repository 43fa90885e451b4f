#include "core/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

#include "core/availability.hpp"
#include "core/prediction.hpp"
#include "obs/obs.hpp"

namespace sparcle {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-12;
/// repair(): extra re-provisioning attempts per GR application when the
/// full shortfall cannot be restored (several repairs contend for the
/// same residuals), and the factor each attempt shrinks the target by —
/// attempt k asks for `shortfall * kRepairBackoff^k`, trading a partial
/// restore for progress.
constexpr std::size_t kRepairRetries = 2;
constexpr double kRepairBackoff = 0.5;

const char* qoe_name(const Application& app) {
  return app.qoe.cls == QoeClass::kGuaranteedRate ? "GR" : "BE";
}

/// Counts the submission outcome and appends the admit/reject row to the
/// installed decision log (docs/observability.md, "Decision log schema").
void log_admission(const Application& app, const AdmissionResult& r) {
  if (obs::MetricsRegistry* reg = obs::metrics()) {
    reg->counter("scheduler.submits").add(1);
    reg->counter(r.admitted ? "scheduler.admitted" : "scheduler.rejected")
        .add(1);
  }
  obs::DecisionLog* log = obs::decision_log();
  if (log == nullptr) return;
  std::string reason =
      r.admitted ? "QoE target met (rate " + std::to_string(r.rate) +
                       ", availability " + std::to_string(r.availability) +
                       ", " + std::to_string(r.path_count) + " path(s))"
                 : r.reason;
  log->record(r.admitted ? obs::DecisionKind::kAdmit
                         : obs::DecisionKind::kReject,
              app.name, qoe_name(app), std::move(reason), r.rate,
              r.availability, r.path_count);
}

/// One row per provisioned path, with the availability progress that
/// justified (or will reject) the addition.
void log_path_add(const Application& app, std::size_t path_count,
                  double path_rate, double achieved, double target,
                  const char* measure) {
  if (obs::MetricsRegistry* reg = obs::metrics())
    reg->counter("scheduler.paths_provisioned").add(1);
  if (obs::DecisionLog* log = obs::decision_log())
    log->record(obs::DecisionKind::kPathAdd, app.name, qoe_name(app),
                "path " + std::to_string(path_count) + ": " + measure + " " +
                    std::to_string(achieved) + " vs target " +
                    std::to_string(target),
                path_rate, achieved, path_count);
}
/// "ncp:<name>" / "link:<name>" for decision-log rows about an element.
std::string element_label(const Network& net, ElementKey e) {
  if (e.kind == ElementKey::Kind::kNcp)
    return e.index >= 0 && e.index < static_cast<NcpId>(net.ncp_count())
               ? "ncp:" + net.ncp(e.index).name
               : "ncp:?";
  return e.index >= 0 && e.index < static_cast<LinkId>(net.link_count())
             ? "link:" + net.link(e.index).name
             : "link:?";
}

/// Installed by check::ScopedValidation; intentionally leaked global state
/// (the harness uninstalls by passing nullptr).
Scheduler::ValidationHook g_validation_hook;

/// Σ CT computation requirement (resource 0) — the "job size" the policy
/// plugins rank by.
double app_size(const Application& app) {
  double size = 0;
  for (CtId i = 0; i < static_cast<CtId>(app.graph->ct_count()); ++i)
    size += app.graph->ct(i).requirement[0];
  return size;
}

}  // namespace

SparcleAssignerOptions SchedulerOptions::assigner_options_with_policy() const {
  SparcleAssignerOptions a = assigner_options;
  if (a.policy == nullptr) a.policy = policy.get();
  return a;
}

void Scheduler::set_validation_hook(ValidationHook hook) {
  g_validation_hook = std::move(hook);
}

void Scheduler::run_validation_hook() const {
  if (batch_active_) return;  // deferred: end_batch() validates the batch
  if (g_validation_hook) g_validation_hook(*this);
}

void Scheduler::begin_batch() {
  if (batch_active_)
    throw std::logic_error("Scheduler::begin_batch: a batch is already open");
  batch_active_ = true;
  batch_dirty_ = false;
  batch_deferred_ = 0;
  batch_added_be_.clear();
}

bool Scheduler::maybe_reallocate() {
  if (batch_active_) {
    batch_dirty_ = true;
    ++batch_deferred_;
    return true;
  }
  return reallocate_best_effort();
}

Scheduler::BatchReport Scheduler::end_batch() {
  if (!batch_active_)
    throw std::logic_error("Scheduler::end_batch: no batch is open");
  const obs::ScopedTimer span("scheduler.end_batch");
  BatchReport report;
  report.deferred_resolves = batch_deferred_;
  batch_active_ = false;
  if (batch_dirty_) {
    // One solve covers every deferred re-solve.  If it fails (numerically
    // degenerate instance), shed the batch's own BE admissions newest
    // first — the per-call path would have rejected them with "resource
    // allocation failed" — until the solve goes through.
    while (!reallocate_best_effort() && !batch_added_be_.empty()) {
      const std::string victim = std::move(batch_added_be_.back());
      batch_added_be_.pop_back();
      for (std::size_t i = placed_.size(); i-- > 0;) {
        if (placed_[i].app.name != victim) continue;
        placed_.erase(placed_.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      usage_valid_ = false;  // placed indices shifted
      competing_valid_ = false;
      report.evicted.push_back(victim);
    }
    if (obs::MetricsRegistry* reg = obs::metrics()) {
      reg->counter("scheduler.batches").add(1);
      if (report.deferred_resolves > 1)
        reg->counter("scheduler.batch.resolves_saved")
            .add(report.deferred_resolves - 1);
    }
  }
  batch_dirty_ = false;
  batch_deferred_ = 0;
  batch_added_be_.clear();
  run_validation_hook();
  return report;
}

Scheduler::Scheduler(Network net, SchedulerOptions options)
    : Scheduler(std::move(net),
                std::make_unique<SparcleAssigner>(
                    options.assigner_options_with_policy()),
                options) {}

Scheduler::Scheduler(Network net, std::unique_ptr<Assigner> assigner,
                     SchedulerOptions options)
    : net_(std::move(net)),
      options_(options),
      assigner_(std::move(assigner)),
      gr_reserved_(LoadMap::zeros(net_)),
      ext_reserved_(LoadMap::zeros(net_)),
      residual_(net_) {
  if (!assigner_) throw std::invalid_argument("Scheduler: null assigner");
  if (options_.max_paths == 0 || options_.max_paths > kMaxExactPaths)
    throw std::invalid_argument("Scheduler: max_paths out of [1, 12]");
}

void Scheduler::rebuild_residual() {
  residual_ = CapacitySnapshot(net_);
  residual_.subtract_scaled(gr_reserved_, 1.0);
  residual_.subtract_scaled(ext_reserved_, 1.0);
  std::vector<ElementKey> dead(failed_.begin(), failed_.end());
  residual_.scale_elements(dead, 0.0);
  predict_scratch_valid_ = false;  // scratch no longer mirrors residual_
}

void Scheduler::recompute_residual_element(const ElementKey& e) {
  if (e.kind == ElementKey::Kind::kNcp) {
    ResourceVector v = net_.ncp(e.index).capacity;
    v -= gr_reserved_.ncp_load(e.index);
    v -= ext_reserved_.ncp_load(e.index);
    v.clamp_nonnegative();
    if (failed_.contains(e)) v *= 0.0;
    residual_.ncp(e.index) = std::move(v);
  } else {
    double c = net_.link(e.index).bandwidth - gr_reserved_.link_load(e.index) -
               ext_reserved_.link_load(e.index);
    if (c < 0 || failed_.contains(e)) c = 0;
    residual_.link(e.index) = c;
  }
  if (predict_scratch_valid_) {
    if (e.kind == ElementKey::Kind::kNcp)
      predict_scratch_.ncp(e.index) = residual_.ncp(e.index);
    else
      predict_scratch_.link(e.index) = residual_.link(e.index);
  }
}

void Scheduler::apply_gr_delta(const PathInfo& path, double rate_delta) {
  gr_reserved_.add_scaled_at(path.elements, path.load, rate_delta);
  for (const ElementKey& e : path.elements) recompute_residual_element(e);
}

bool Scheduler::reserve_external(const std::string& name, const LoadMap& load,
                                 std::vector<ElementKey> elements,
                                 std::string* why) {
  const auto fail = [&](std::string reason) {
    if (why) *why = std::move(reason);
    if (obs::MetricsRegistry* reg = obs::metrics())
      reg->counter("scheduler.external.reserve_rejects").add(1);
    return false;
  };
  if (external_.contains(name))
    return fail("external reservation '" + name + "' already exists");
  std::sort(elements.begin(), elements.end());
  elements.erase(std::unique(elements.begin(), elements.end()),
                 elements.end());
  // Authoritative fit check against the *current* residual (GR + prior
  // external holds already subtracted) — the federation plans on an
  // optimistic snapshot, so this is where stale plans get caught.
  constexpr double kTol = 1e-9;
  for (const ElementKey& e : elements) {
    const bool is_ncp = e.kind == ElementKey::Kind::kNcp;
    const std::string& ename =
        is_ncp ? net_.ncp(e.index).name : net_.link(e.index).name;
    if (failed_.contains(e))
      return fail("element '" + ename + "' is marked failed");
    if (is_ncp) {
      const ResourceVector& need = load.ncp_load(e.index);
      const ResourceVector& have = residual_.ncp(e.index);
      for (std::size_t r = 0; r < need.size(); ++r)
        if (need[r] > have[r] + kTol * (1.0 + net_.ncp(e.index).capacity[r]))
          return fail("insufficient residual on NCP '" + ename + "'");
    } else {
      if (load.link_load(e.index) >
          residual_.link(e.index) +
              kTol * (1.0 + net_.link(e.index).bandwidth))
        return fail("insufficient residual on link '" + ename + "'");
    }
  }
  ExternalReservation res;
  res.load = LoadMap::zeros(net_);
  res.load.add_scaled_at(elements, load, 1.0);  // masked to `elements`
  ext_reserved_.add_scaled_at(elements, res.load, 1.0);
  bool touches_be = false;
  for (const ElementKey& e : elements) {
    recompute_residual_element(e);
    if (!touches_be) touches_be = element_touches_be(e);
  }
  res.elements = std::move(elements);
  external_.emplace(name, std::move(res));
  if (touches_be) maybe_reallocate();
  if (obs::MetricsRegistry* reg = obs::metrics())
    reg->counter("scheduler.external.reserves").add(1);
  run_validation_hook();
  return true;
}

bool Scheduler::release_external(const std::string& name) {
  auto it = external_.find(name);
  if (it == external_.end()) return false;
  ext_reserved_.add_scaled_at(it->second.elements, it->second.load, -1.0);
  bool touches_be = false;
  for (const ElementKey& e : it->second.elements) {
    recompute_residual_element(e);
    if (!touches_be) touches_be = element_touches_be(e);
  }
  external_.erase(it);
  if (touches_be) maybe_reallocate();
  if (obs::MetricsRegistry* reg = obs::metrics())
    reg->counter("scheduler.external.releases").add(1);
  run_validation_hook();
  return true;
}

bool Scheduler::element_touches_be(const ElementKey& e) const {
  ensure_usage_index();
  for (const ElementUsageIndex::PathRef& ref : usage_.users(e))
    if (placed_[ref.app].app.qoe.cls == QoeClass::kBestEffort) return true;
  return false;
}

bool Scheduler::path_alive(const PathInfo& path) const {
  for (const ElementKey& e : path.elements)
    if (failed_.contains(e)) return false;
  return true;
}

void Scheduler::ensure_usage_index() const {
  if (usage_valid_) return;
  usage_.clear();
  for (std::size_t i = 0; i < placed_.size(); ++i)
    for (std::size_t k = 0; k < placed_[i].paths.size(); ++k)
      usage_.add_path(i, k, placed_[i].paths[k].elements);
  usage_valid_ = true;
}

void Scheduler::index_new_app() {
  const std::size_t i = placed_.size() - 1;
  if (usage_valid_)
    for (std::size_t k = 0; k < placed_[i].paths.size(); ++k)
      usage_.add_path(i, k, placed_[i].paths[k].elements);
  competing_add_app(placed_[i]);
}

const ElementUsageIndex& Scheduler::element_usage() const {
  ensure_usage_index();
  return usage_;
}

void Scheduler::competing_add_app(const PlacedApp& pa) const {
  if (!competing_valid_) return;
  if (pa.app.qoe.cls != QoeClass::kBestEffort) return;
  // An app competes once per element, however many of its paths use it.
  std::set<ElementKey> distinct;
  for (const PathInfo& p : pa.paths)
    distinct.insert(p.elements.begin(), p.elements.end());
  for (const ElementKey& e : distinct)
    be_competing_[e] += pa.app.qoe.priority;
}

void Scheduler::ensure_competing_index() const {
  if (competing_valid_) return;
  be_competing_.clear();
  competing_valid_ = true;
  for (const PlacedApp& pa : placed_) competing_add_app(pa);
}

const CapacitySnapshot& Scheduler::predicted_capacities(
    double priority) const {
  ensure_competing_index();
  if (!predict_scratch_valid_) {
    predict_scratch_ = residual_;
    predict_touched_.clear();
    predict_scratch_valid_ = true;
  } else {
    // Undo the previous prediction's scaling: only the touched elements
    // diverge from residual_ (mutations patch the scratch in place).
    predict_scratch_.copy_elements_from(residual_, predict_touched_);
    predict_touched_.clear();
  }
  apply_priority_shares(predict_scratch_, be_competing_, priority,
                        predict_touched_);
  return predict_scratch_;
}

bool Scheduler::remove(const std::string& app_name) {
  for (std::size_t i = 0; i < placed_.size(); ++i) {
    if (placed_[i].app.name != app_name) continue;
    const PlacedApp& pa = placed_[i];
    if (pa.app.qoe.cls == QoeClass::kGuaranteedRate) {
      // Release the reservations incrementally: only the departing paths'
      // own elements change, so a full residual rebuild is unnecessary.
      for (std::size_t k = 0; k < pa.paths.size(); ++k)
        apply_gr_delta(pa.paths[k], -pa.path_rates[k]);
    } else {
      competing_valid_ = false;  // a BE footprint left the eq. (6) pool
    }
    placed_.erase(placed_.begin() + static_cast<std::ptrdiff_t>(i));
    usage_valid_ = false;  // placed indices shifted
    maybe_reallocate();
    run_validation_hook();
    return true;
  }
  return false;
}

void Scheduler::mark_failed(ElementKey element) {
  if (!failed_.insert(element).second) return;
  // Only the failed element's capacity changes; re-solving problem (4) is
  // needed only when a placed BE path actually crosses it (rows no column
  // loads never enter the solve).
  const bool resolve = element_touches_be(element);
  recompute_residual_element(element);
  if (resolve) maybe_reallocate();
  run_validation_hook();
}

void Scheduler::mark_recovered(ElementKey element) {
  if (failed_.erase(element) == 0) return;
  const bool resolve = element_touches_be(element);
  recompute_residual_element(element);
  if (resolve) maybe_reallocate();
  run_validation_hook();
}

Scheduler::ReoptimizeReport Scheduler::global_reoptimize(
    double min_utility_gain) {
  ReoptimizeReport report;
  report.old_be_utility = be_utility();
  report.old_gr_rate = total_gr_rate();

  // Snapshot for rollback.
  const std::vector<PlacedApp> saved_placed = placed_;
  const LoadMap saved_reserved = gr_reserved_;

  // Re-admission order: GR by descending guarantee, then BE by descending
  // priority (the order the prediction machinery assumes favours).
  std::vector<const PlacedApp*> order;
  for (const PlacedApp& pa : saved_placed) order.push_back(&pa);
  std::stable_sort(order.begin(), order.end(),
                   [](const PlacedApp* a, const PlacedApp* b) {
                     const bool ga =
                         a->app.qoe.cls == QoeClass::kGuaranteedRate;
                     const bool gb =
                         b->app.qoe.cls == QoeClass::kGuaranteedRate;
                     if (ga != gb) return ga;
                     if (ga) return a->app.qoe.min_rate > b->app.qoe.min_rate;
                     return a->app.qoe.priority > b->app.qoe.priority;
                   });

  placed_.clear();
  gr_reserved_ = LoadMap::zeros(net_);
  usage_valid_ = false;  // nested submits must not append to a stale index
  competing_valid_ = false;
  rebuild_residual();

  bool all_admitted = true;
  for (const PlacedApp* pa : order) {
    if (!submit(pa->app).admitted) {
      all_admitted = false;
      break;
    }
  }

  const double new_utility = be_utility();
  const double new_gr = total_gr_rate();
  const bool improves = all_admitted &&
                        new_gr + kEps >= report.old_gr_rate &&
                        new_utility >= report.old_be_utility +
                                           min_utility_gain - kEps &&
                        new_utility > report.old_be_utility + kEps;
  if (!improves) {
    // The snapshot holds the exact pre-reoptimize allocation (rates
    // included), so restoring it needs no PF re-solve.
    placed_ = saved_placed;
    gr_reserved_ = saved_reserved;
    rebuild_residual();
    report.new_be_utility = report.old_be_utility;
    report.new_gr_rate = report.old_gr_rate;
    usage_valid_ = false;
    competing_valid_ = false;
    run_validation_hook();
    return report;
  }

  // Count migrated CTs (first path host differences, matched by name).
  for (const PlacedApp& old_pa : saved_placed)
    for (const PlacedApp& new_pa : placed_) {
      if (old_pa.app.name != new_pa.app.name) continue;
      const Placement& before = old_pa.paths[0].placement;
      const Placement& after = new_pa.paths[0].placement;
      for (CtId i = 0; i < static_cast<CtId>(before.ct_count()); ++i)
        if (before.ct_host(i) != after.ct_host(i)) ++report.migrated_cts;
    }
  report.adopted = true;
  report.new_be_utility = new_utility;
  report.new_gr_rate = new_gr;
  usage_valid_ = false;
  competing_valid_ = false;
  run_validation_hook();
  return report;
}

Scheduler::RepairReport Scheduler::repair(ElementKey element) {
  const obs::ScopedTimer span("scheduler.repair");
  obs::MetricsRegistry* reg = obs::metrics();
  if (reg) reg->counter("scheduler.repairs").add(1);

  RepairReport report;

  // Which placed apps need attention?  Users of the triggering element and
  // of every still-failed element, plus apps already degraded by earlier
  // events (a recovery restores capacity they can reclaim): GR apps below
  // their guarantee, BE apps whose alive paths miss their availability
  // target (no path left included).
  ensure_usage_index();
  std::set<std::size_t> affected;
  auto collect = [&](const ElementKey& e) {
    for (const ElementUsageIndex::PathRef& ref : usage_.users(e))
      affected.insert(ref.app);
  };
  collect(element);
  for (const ElementKey& dead : failed_) collect(dead);
  for (std::size_t i = 0; i < placed_.size(); ++i) {
    // Apps outside the set so far have no path through a failed element.
    if (affected.contains(i)) continue;
    const PlacedApp& pa = placed_[i];
    if (pa.app.qoe.cls == QoeClass::kGuaranteedRate) {
      double alive_rate = 0;
      for (std::size_t k = 0; k < pa.paths.size(); ++k)
        if (path_alive(pa.paths[k])) alive_rate += pa.path_rates[k];
      if (alive_rate + kEps < pa.app.qoe.min_rate) affected.insert(i);
    } else if (be_below_target(pa)) {
      affected.insert(i);
    }
  }
  report.apps_touched = affected.size();
  if (reg)
    reg->counter("scheduler.repair.apps_touched").add(affected.size());

  // Nothing placed crosses the trigger or any failed element and no app is
  // degraded: the index proves there is nothing to shed or restore, so skip
  // the residual rebuild and the PF re-solve and keep the warm index.
  if (affected.empty()) return report;

  // Pass 1: shed dead paths.  GR reservations on dead paths are released
  // so the freed capacity is visible to the restore pass; BE paths are
  // simply dropped (graceful shedding -- the app itself is never evicted).
  for (std::size_t pi : affected) {
    PlacedApp& pa = placed_[pi];
    std::vector<PathInfo> alive;
    std::vector<double> alive_rates;
    for (std::size_t k = 0; k < pa.paths.size(); ++k) {
      if (path_alive(pa.paths[k])) {
        alive.push_back(std::move(pa.paths[k]));
        alive_rates.push_back(pa.path_rates[k]);
      } else {
        ++report.paths_dropped;
        if (pa.app.qoe.cls == QoeClass::kGuaranteedRate)
          // Incremental release: residual_ is refreshed on the dead
          // path's own elements only (no full rebuild on this hot path).
          apply_gr_delta(pa.paths[k], -pa.path_rates[k]);
      }
    }
    pa.paths = std::move(alive);
    pa.path_rates = std::move(alive_rates);
    if (pa.app.qoe.cls == QoeClass::kGuaranteedRate) {
      pa.allocated_rate = 0;
      for (double r : pa.path_rates) pa.allocated_rate += r;
    }
  }
  competing_valid_ = false;  // shed BE paths shrank eq. (6) footprints

  // Pass 2: restore in policy order (decision point 3; the default is GR
  // first, largest guarantee first, then BE by descending priority).
  // Ties break on placed order via stable_sort so a replayed trace
  // reproduces the same state bit for bit.
  std::vector<std::size_t> order(affected.begin(), affected.end());
  std::vector<policy::RepairCandidate> views(placed_.size());
  for (std::size_t pi : order) {
    const PlacedApp& pa = placed_[pi];
    views[pi] = {&pa.app, pa.allocated_rate, pa.paths.size(),
                 app_size(pa.app)};
  }
  const policy::SchedulingPolicy& pol =
      policy::or_default(options_.policy.get());
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return pol.repair_before(views[a], views[b]);
                   });

  for (std::size_t pi : order) {
    PlacedApp& pa = placed_[pi];
    if (pa.app.qoe.cls == QoeClass::kGuaranteedRate) {
      const double shortfall = pa.app.qoe.min_rate - pa.allocated_rate;
      if (shortfall <= kEps) continue;  // guarantee still covered
      // Retry with geometrically shrinking targets: a transient admission
      // failure at the full shortfall often succeeds at a partial target,
      // and a partial restore beats none (steady-state invariants accept
      // an acknowledged shortfall).
      bool restored = false;
      for (std::size_t attempt = 0; attempt <= kRepairRetries && !restored;
           ++attempt) {
        const double target =
            shortfall *
            std::pow(kRepairBackoff, static_cast<double>(attempt));
        if (target <= kEps) break;
        double recovered = 0;
        auto enough = [&](const std::vector<PathInfo>& paths) {
          recovered = 0;
          for (const PathInfo& p : paths) recovered += p.standalone_rate;
          return recovered + kEps >= target;
        };
        std::vector<PathInfo> extra =
            find_paths(pa.app, residual_, target, enough);
        const bool last = attempt == kRepairRetries;
        if (recovered + kEps >= target || (last && !extra.empty())) {
          for (PathInfo& p : extra) {
            apply_gr_delta(p, p.standalone_rate);
            pa.path_rates.push_back(p.standalone_rate);
            pa.allocated_rate += p.standalone_rate;
            pa.paths.push_back(std::move(p));
            ++report.paths_added;
          }
          restored = pa.allocated_rate + kEps >= pa.app.qoe.min_rate;
        } else if (!last) {
          ++report.retries;
          if (reg) reg->counter("scheduler.repair.retries").add(1);
        }
      }
      if (pa.allocated_rate + kEps >= pa.app.qoe.min_rate)
        report.repaired.push_back(pa.app.name);
      else
        report.still_degraded.push_back(pa.app.name);
    } else if (be_below_target(pa)) {
      // BE app below its availability target (its dead paths are shed by
      // now): re-provision against the priority-share prediction (eq. (6))
      // with admission's stop rule over the alive paths plus the new ones,
      // keeping only new paths that raise the availability, up to
      // max_paths in all.  Rates come from the PF re-solve below; the app
      // is never evicted, zero paths included.  Its alive paths stay in
      // the competing-priority index, so the prediction counts its own
      // priority there too — which only steers new paths off them.
      const double target = pa.app.qoe.availability;
      std::vector<std::vector<ElementKey>> sets;
      for (const PathInfo& p : pa.paths) sets.push_back(p.elements);
      double achieved = sets.empty() ? 0.0 : availability_any(net_, sets);
      double reached = achieved;
      std::size_t useful = 0;
      std::vector<PathInfo> extra;
      if (sets.size() < options_.max_paths) {
        const CapacitySnapshot& effective =
            options_.use_prediction
                ? predicted_capacities(pa.app.qoe.priority)
                : residual_;
        auto enough = [&](const std::vector<PathInfo>& paths) {
          sets.push_back(paths.back().elements);
          const double prev = achieved;
          achieved = availability_any(net_, sets);
          if (sets.size() == 1 || achieved > prev + kEps) {
            useful = paths.size();
            reached = achieved;
          }
          if (achieved + kEps >= target) return true;
          // Stagnation: an extra path that reuses the same elements
          // cannot help.
          return (sets.size() > 1 && achieved <= prev + kEps) ||
                 sets.size() >= options_.max_paths;
        };
        extra = find_paths(pa.app, effective, kInf, enough);
        extra.erase(extra.begin() + static_cast<std::ptrdiff_t>(useful),
                    extra.end());
      }
      if (!extra.empty()) {
        const bool had_paths = !pa.paths.empty();
        for (PathInfo& p : extra) {
          pa.path_rates.push_back(0.0);
          pa.paths.push_back(std::move(p));
          ++report.paths_added;
        }
        // Later restores see the new footprint: added to an empty one
        // exactly, rebuilt where alive paths already count.
        if (had_paths)
          competing_valid_ = false;
        else
          competing_add_app(pa);
      }
      if (!pa.paths.empty() && reached + kEps >= target)
        report.repaired.push_back(pa.app.name);
      else
        report.still_degraded.push_back(pa.app.name);
    }
    // BE apps whose alive paths meet their target only need the PF
    // re-solve.
  }
  reallocate_best_effort();
  if (reg) {
    reg->counter("scheduler.repair.paths_dropped").add(report.paths_dropped);
    reg->counter("scheduler.repair.paths_added").add(report.paths_added);
  }

  if (obs::DecisionLog* log = obs::decision_log()) {
    const std::string elem = element_label(net_, element);
    const auto listed = [](const std::vector<std::string>& names,
                           const std::string& name) {
      return std::find(names.begin(), names.end(), name) != names.end();
    };
    for (std::size_t pi : order) {
      const PlacedApp& pa = placed_[pi];
      // Apps in neither list lost some paths but kept enough alive ones
      // (a GR guarantee still covered, a BE app with paths left).
      std::string verdict =
          "kept " + std::to_string(pa.paths.size()) + " alive path(s)";
      if (listed(report.repaired, pa.app.name))
        verdict = "restored";
      else if (listed(report.still_degraded, pa.app.name))
        verdict = "still degraded";
      log->record(obs::DecisionKind::kRepair, pa.app.name, qoe_name(pa.app),
                  "repair after " + elem + ": " + verdict, pa.allocated_rate,
                  0.0, pa.paths.size());
    }
  }

  usage_valid_ = false;  // touched apps' path lists changed
  competing_valid_ = false;
  run_validation_hook();
  return report;
}

bool Scheduler::be_below_target(const PlacedApp& pa) const {
  if (pa.paths.empty()) return true;
  const double target = pa.app.qoe.availability;
  if (target <= kEps) return false;  // any path meets it
  std::vector<std::vector<ElementKey>> sets;
  for (const PathInfo& p : pa.paths) sets.push_back(p.elements);
  return availability_any(net_, sets) + kEps < target;
}

std::vector<std::string> Scheduler::degraded_gr_apps() const {
  std::vector<std::string> degraded;
  for (const PlacedApp& pa : placed_) {
    if (pa.app.qoe.cls != QoeClass::kGuaranteedRate) continue;
    double alive_rate = 0;
    for (std::size_t k = 0; k < pa.paths.size(); ++k)
      if (path_alive(pa.paths[k])) alive_rate += pa.path_rates[k];
    if (alive_rate + kEps < pa.app.qoe.min_rate)
      degraded.push_back(pa.app.name);
  }
  return degraded;
}

AdmissionResult Scheduler::submit(const Application& app) {
  const obs::ScopedTimer span("scheduler.submit");
  app.validate();
  const AdmissionResult result = app.qoe.cls == QoeClass::kBestEffort
                                     ? submit_best_effort(app)
                                     : submit_guaranteed_rate(app);
  log_admission(app, result);
  // Keep the element->path index warm for repair().
  if (result.admitted) index_new_app();
  run_validation_hook();
  return result;
}

std::vector<PathInfo> Scheduler::find_paths(const Application& app,
                                            const CapacitySnapshot& start,
                                            double rate_cap,
                                            const StopPredicate& enough) const {
  ProvisioningOptions opts;
  opts.max_paths = options_.max_paths;
  opts.diversity = options_.path_diversity;
  opts.overlap_penalty = options_.overlap_penalty;
  opts.rate_cap = rate_cap;
  opts.failed = &failed_;
  return provision_paths(net_, *app.graph, app.pinned, start, *assigner_,
                         opts, enough);
}

AdmissionResult Scheduler::submit_best_effort(const Application& app) {
  AdmissionResult result;

  // Step 1 (Fig. 3): predict the capacities this app's priority earns it,
  // on top of what GR reservations left behind.  The competing-priority
  // totals are cached and extended incrementally per admission, so batch
  // member k only touches the elements member k-1 actually changed.
  const CapacitySnapshot& effective =
      options_.use_prediction ? predicted_capacities(app.qoe.priority)
                              : residual_;

  // Steps 2-3: add task-assignment paths until the availability target.
  const double target = app.qoe.availability;
  double achieved = 0.0;
  auto enough = [&](const std::vector<PathInfo>& paths) {
    std::vector<std::vector<ElementKey>> element_sets;
    for (const PathInfo& pi : paths) element_sets.push_back(pi.elements);
    const double prev = achieved;
    achieved = availability_any(net_, element_sets);
    log_path_add(app, paths.size(), paths.back().standalone_rate, achieved,
                 target, "availability");
    if (achieved + kEps >= target) return true;
    // Stagnation: an extra path that reuses the same elements cannot help.
    return paths.size() > 1 && achieved <= prev + kEps;
  };
  std::vector<PathInfo> paths = find_paths(app, effective, kInf, enough);

  if (paths.empty()) {
    result.reason = "no feasible task-assignment path";
    return result;
  }
  if (achieved + kEps < target) {
    result.reason = "availability target not reachable (achieved " +
                    std::to_string(achieved) + ")";
    return result;
  }

  // Steps 4-5: commit tentatively, re-solve the PF allocation (4).
  PlacedApp placed;
  placed.app = app;
  placed.paths = std::move(paths);
  placed.path_rates.assign(placed.paths.size(), 0.0);
  placed_.push_back(std::move(placed));
  if (!maybe_reallocate()) {
    placed_.pop_back();
    reallocate_best_effort();  // restore previous rates
    result.reason = "resource allocation failed";
    return result;
  }
  if (batch_active_) batch_added_be_.push_back(app.name);

  const PlacedApp& committed = placed_.back();
  result.admitted = true;
  result.path_count = committed.paths.size();
  result.rate = committed.allocated_rate;
  result.availability = achieved;
  return result;
}

AdmissionResult Scheduler::submit_guaranteed_rate(const Application& app) {
  AdmissionResult result;
  const double min_rate = app.qoe.min_rate;
  const double target = app.qoe.min_rate_availability;

  double achieved = 0.0;
  auto enough = [&](const std::vector<PathInfo>& paths) {
    std::vector<std::vector<ElementKey>> element_sets;
    std::vector<double> rates;
    double sum = 0;
    for (const PathInfo& pi : paths) {
      element_sets.push_back(pi.elements);
      rates.push_back(pi.standalone_rate);
      sum += pi.standalone_rate;
    }
    if (target <= 0) {
      // Pure rate request: availability is the probability the rate is met
      // assuming everything up, i.e. 1 iff the aggregate reaches R_J.
      achieved = sum + kEps >= min_rate ? 1.0 : 0.0;
      log_path_add(app, paths.size(), paths.back().standalone_rate, sum,
                   min_rate, "aggregate rate");
      return achieved > 0;
    }
    if (obs::MetricsRegistry* reg = obs::metrics())
      reg->counter("scheduler.gr_subset_sum_evals").add(1);
    achieved = min_rate_availability(net_, element_sets, rates, min_rate);
    log_path_add(app, paths.size(), paths.back().standalone_rate, achieved,
                 target, "min-rate availability");
    return achieved + kEps >= target;
  };
  std::vector<PathInfo> paths = find_paths(app, residual_, min_rate, enough);

  if (paths.empty()) {
    result.reason = "no feasible task-assignment path";
    return result;
  }
  const bool met = target <= 0 ? achieved > 0 : achieved + kEps >= target;
  if (!met) {
    result.reason =
        target <= 0
            ? "requested rate not reachable with the available paths"
            : "min-rate availability not reachable (achieved " +
                  std::to_string(achieved) + ")";
    return result;
  }

  // Admit: reserve every path's resources permanently (§IV-C: guaranteed
  // resources are not shared with later arrivals).
  PlacedApp placed;
  placed.app = app;
  placed.allocated_rate = 0;
  for (PathInfo& pi : paths) {
    // Incremental reservation: residual_ is refreshed on the committed
    // path's own elements only.
    apply_gr_delta(pi, pi.standalone_rate);
    placed.path_rates.push_back(pi.standalone_rate);
    placed.allocated_rate += pi.standalone_rate;
  }
  placed.paths = std::move(paths);
  placed_.push_back(std::move(placed));

  // The BE pool shrank: re-run the PF allocation over the survivors.
  maybe_reallocate();

  result.admitted = true;
  result.path_count = placed_.back().paths.size();
  result.rate = placed_.back().allocated_rate;
  result.availability = target <= 0 ? 1.0 : achieved;
  return result;
}

namespace {
/// Bucket bounds of the per-solve interior-point-iteration histogram
/// (`scheduler.solver.newton_iters`, docs/observability.md).
std::vector<double> newton_iter_bounds() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256, 512};
}
/// Bucket bounds of the per-solve factor-size histogram
/// (`scheduler.solver.factor_entries`): powers of four.
std::vector<double> factor_entry_bounds() {
  return {16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576};
}
}  // namespace

bool Scheduler::reallocate_best_effort() {
  const obs::ScopedTimer span("scheduler.be_resolve");
  obs::MetricsRegistry* reg = obs::metrics();
  if (reg) reg->counter("scheduler.be_resolves").add(1);
  // Row layout: NCP j resource r -> j*R + r; link l -> ncp_count*R + l.
  const std::size_t nr = net_.schema().size();
  const std::size_t ncp_rows = net_.ncp_count() * nr;
  const std::size_t rows = ncp_rows + net_.link_count();

  PfProblem pf;
  pf.capacity.assign(rows, 0.0);
  for (NcpId j = 0; j < static_cast<NcpId>(net_.ncp_count()); ++j)
    for (std::size_t r = 0; r < nr; ++r)
      pf.capacity[j * nr + r] = residual_.ncp(j)[r];
  for (LinkId l = 0; l < static_cast<LinkId>(net_.link_count()); ++l)
    pf.capacity[ncp_rows + l] = residual_.link(l);

  struct VarRef {
    std::size_t placed_index;
    std::size_t path_index;
  };
  std::vector<VarRef> var_refs;
  std::vector<std::size_t> app_of_placed(placed_.size(), SIZE_MAX);

  for (std::size_t pi = 0; pi < placed_.size(); ++pi) {
    PlacedApp& pa = placed_[pi];
    if (pa.app.qoe.cls != QoeClass::kBestEffort) continue;
    pa.allocated_rate = 0;  // surviving paths are written back post-solve

    bool app_has_variable = false;
    for (std::size_t k = 0; k < pa.paths.size(); ++k) {
      PfProblem::Column col;
      // A path is unusable when any element it touches failed — including
      // transit NCPs, which carry no load but must forward the stream.
      bool blocked = !path_alive(pa.paths[k]);
      const LoadMap& load = pa.paths[k].load;
      // The load is supported on the path's own element list, so the
      // column can be built from it instead of sweeping the network.
      for (const ElementKey& e : pa.paths[k].elements) {
        if (e.kind == ElementKey::Kind::kNcp) {
          const ResourceVector& a = load.ncp_load(e.index);
          for (std::size_t r = 0; r < nr; ++r) {
            if (a[r] <= 0) continue;
            const std::size_t row =
                static_cast<std::size_t>(e.index) * nr + r;
            if (pf.capacity[row] <= 0) blocked = true;
            col.entries.emplace_back(row, a[r]);
          }
        } else {
          const double a = load.link_load(e.index);
          if (a <= 0) continue;
          const std::size_t row = ncp_rows + static_cast<std::size_t>(e.index);
          if (pf.capacity[row] <= 0) blocked = true;
          col.entries.emplace_back(row, a);
        }
      }
      if (blocked) {  // a failure or GR reservation starved this path
        pa.path_rates[k] = 0.0;
        continue;
      }
      // Keep the historical NCP-rows-then-links entry order (element lists
      // are unordered; rows within a path are distinct).
      std::sort(col.entries.begin(), col.entries.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      if (!app_has_variable) {
        app_of_placed[pi] = pf.app_priority.size();
        pf.app_priority.push_back(pa.app.qoe.priority);
        app_has_variable = true;
      }
      pf.columns.push_back(std::move(col));
      pf.var_app.push_back(app_of_placed[pi]);
      var_refs.push_back({pi, k});
    }
  }

  // On any failure below, leave the same state the historical code did:
  // every BE allocation zeroed (callers re-solve after rolling back).
  auto zero_be_rates = [&] {
    for (PlacedApp& pa : placed_) {
      if (pa.app.qoe.cls != QoeClass::kBestEffort) continue;
      pa.allocated_rate = 0;
      std::fill(pa.path_rates.begin(), pa.path_rates.end(), 0.0);
    }
  };

  if (pf.columns.empty()) {
    zero_be_rates();  // only blocked paths (if any) — all rates are 0
    return true;
  }

  PfSolution sol;
  try {
    sol = solve_weighted_pf(pf);
  } catch (const std::exception&) {
    zero_be_rates();
    return false;
  }

  ++solver_stats_.solves;
  solver_stats_.newton_iters += static_cast<std::uint64_t>(sol.newton_iters);
  solver_stats_.last_newton_iters = sol.newton_iters;
  if (reg) {
    // Every solve starts cold; the counter keeps its historical name
    // (docs/observability.md).
    reg->counter("scheduler.solver.warm_start_misses").add(1);
    reg->histogram("scheduler.solver.newton_iters", newton_iter_bounds())
        .observe(static_cast<double>(sol.newton_iters));
    reg->histogram("scheduler.solver.factor_entries", factor_entry_bounds())
        .observe(static_cast<double>(sol.factor_entries));
    // An unconverged solve's rates are still used when they pass the
    // checks below; the counter makes each one visible.
    if (!sol.converged) reg->counter("scheduler.solver.not_converged").add(1);
  }

  bool usable = sol.max_violation <= 1e-6;
  for (double rate : sol.path_rate)
    usable = usable && std::isfinite(rate) && rate >= 0;
  if (!usable) {
    zero_be_rates();
    return false;
  }

  for (std::size_t v = 0; v < var_refs.size(); ++v) {
    PlacedApp& pa = placed_[var_refs[v].placed_index];
    pa.path_rates[var_refs[v].path_index] = sol.path_rate[v];
    pa.allocated_rate += sol.path_rate[v];
  }
  return true;
}

double Scheduler::be_utility() const {
  double u = 0;
  bool any = false;
  for (const PlacedApp& pa : placed_) {
    if (pa.app.qoe.cls != QoeClass::kBestEffort) continue;
    any = true;
    if (pa.allocated_rate <= 0) return -kInf;
    u += pa.app.qoe.priority * std::log(pa.allocated_rate);
  }
  return any ? u : 0.0;
}

double Scheduler::total_gr_rate() const {
  double total = 0;
  for (const PlacedApp& pa : placed_)
    if (pa.app.qoe.cls == QoeClass::kGuaranteedRate)
      total += pa.allocated_rate;
  return total;
}

double Scheduler::total_be_rate() const {
  double total = 0;
  for (const PlacedApp& pa : placed_)
    if (pa.app.qoe.cls == QoeClass::kBestEffort) total += pa.allocated_rate;
  return total;
}

}  // namespace sparcle
