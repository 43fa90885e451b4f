#include "check/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/availability.hpp"
#include "core/fairness.hpp"

namespace sparcle::check {

namespace {

/// Element-name rendering for reports ("ncp edge2", "link up3").
std::string element_name(const Network& net, const ElementKey& e) {
  if (e.index < 0) return "<invalid>";
  if (e.kind == ElementKey::Kind::kNcp)
    return e.index < static_cast<NcpId>(net.ncp_count())
               ? "ncp " + net.ncp(e.index).name
               : "ncp #" + std::to_string(e.index);
  return e.index < static_cast<LinkId>(net.link_count())
             ? "link " + net.link(e.index).name
             : "link #" + std::to_string(e.index);
}

/// Collects violations with shared formatting helpers.
class Collector {
 public:
  explicit Collector(CheckReport& report) : report_(report) {}

  void add(InvariantCode code, std::string app, std::string detail,
           double slack = 0.0) {
    Violation v;
    v.code = code;
    v.app = std::move(app);
    v.slack = slack;
    v.detail = std::move(detail);
    report_.violations.push_back(std::move(v));
  }

  void add_element(InvariantCode code, std::string app, ElementKey element,
                   std::string detail, double slack) {
    Violation v;
    v.code = code;
    v.app = std::move(app);
    v.element = element;
    v.element_scoped = true;
    v.slack = slack;
    v.detail = std::move(detail);
    report_.violations.push_back(std::move(v));
  }

 private:
  CheckReport& report_;
};

/// Structural checks on one placement: shape, valid hosts, contiguous
/// routes (via Placement::validate), and the pin map respected.
void check_placement_structure(const Network& net, const TaskGraph& graph,
                               const std::map<CtId, NcpId>& pinned,
                               const Placement& placement,
                               const std::string& app, Collector& out) {
  std::string err;
  if (!placement.complete()) {
    out.add(InvariantCode::kPlacementStructure, app,
            "placement is not complete (unplaced CT or TT)");
    return;
  }
  if (!placement.validate(graph, net, &err)) {
    out.add(InvariantCode::kPlacementStructure, app, err);
    return;
  }
  for (const auto& [ct, ncp] : pinned) {
    if (ct < 0 || ct >= static_cast<CtId>(graph.ct_count())) {
      out.add(InvariantCode::kPinViolated, app,
              "pin references CT #" + std::to_string(ct) +
                  " outside the task graph");
      continue;
    }
    if (placement.ct_host(ct) != ncp)
      out.add_element(InvariantCode::kPinViolated, app, ElementKey::ncp(ncp),
                      "CT '" + graph.ct(ct).name + "' pinned to '" +
                          net.ncp(ncp).name + "' but hosted on '" +
                          net.ncp(placement.ct_host(ct)).name + "'",
                      0.0);
  }
}

/// |a - b| within absolute-or-relative tolerance.
bool close(double a, double b, double tol) {
  return std::abs(a - b) <= tol * (1.0 + std::max(std::abs(a), std::abs(b)));
}

/// Recomputes a path's per-unit LoadMap and element set from its placement
/// and compares them with the stored copies (the scheduler carries both
/// around for years of operations — drift means corrupt accounting).
void check_stored_path_views(const Network& net, const TaskGraph& graph,
                             const PathInfo& path, const std::string& app,
                             double tol, Collector& out) {
  const LoadMap fresh(net, graph, path.placement);
  for (NcpId j = 0; j < static_cast<NcpId>(net.ncp_count()); ++j)
    for (std::size_t r = 0; r < net.schema().size(); ++r)
      if (!close(path.load.ncp_load(j)[r], fresh.ncp_load(j)[r], tol)) {
        out.add_element(InvariantCode::kLoadMismatch, app, ElementKey::ncp(j),
                        "stored per-unit load " +
                            std::to_string(path.load.ncp_load(j)[r]) +
                            " != recomputed " +
                            std::to_string(fresh.ncp_load(j)[r]),
                        path.load.ncp_load(j)[r] - fresh.ncp_load(j)[r]);
        return;
      }
  for (LinkId l = 0; l < static_cast<LinkId>(net.link_count()); ++l)
    if (!close(path.load.link_load(l), fresh.link_load(l), tol)) {
      out.add_element(InvariantCode::kLoadMismatch, app, ElementKey::link(l),
                      "stored per-unit load " +
                          std::to_string(path.load.link_load(l)) +
                          " != recomputed " +
                          std::to_string(fresh.link_load(l)),
                      path.load.link_load(l) - fresh.link_load(l));
      return;
    }

  const std::vector<ElementKey> fresh_elems =
      path.placement.used_elements(graph, net);
  const std::set<ElementKey> stored(path.elements.begin(),
                                    path.elements.end());
  const std::set<ElementKey> expect(fresh_elems.begin(), fresh_elems.end());
  if (stored != expect)
    out.add(InvariantCode::kElementsMismatch, app,
            "stored element set (" + std::to_string(stored.size()) +
                ") != placement's used elements (" +
                std::to_string(expect.size()) + ")");
}

}  // namespace

const char* to_string(InvariantCode code) {
  switch (code) {
    case InvariantCode::kPlacementStructure: return "placement-structure";
    case InvariantCode::kPinViolated: return "pin-violated";
    case InvariantCode::kLoadMismatch: return "load-mismatch";
    case InvariantCode::kElementsMismatch: return "elements-mismatch";
    case InvariantCode::kRateNotBottleneck: return "rate-not-bottleneck";
    case InvariantCode::kRateAccounting: return "rate-accounting";
    case InvariantCode::kCapacityExceeded: return "capacity-exceeded";
    case InvariantCode::kResidualMismatch: return "residual-mismatch";
    case InvariantCode::kGrGuaranteeViolated: return "gr-guarantee-violated";
    case InvariantCode::kGrAvailabilityShort: return "gr-availability-short";
    case InvariantCode::kBeNotPf: return "be-not-proportionally-fair";
    case InvariantCode::kDeadPathCarriesRate: return "dead-path-carries-rate";
    case InvariantCode::kOracleInfeasible: return "oracle-infeasible";
    case InvariantCode::kOracleSuboptimal: return "oracle-suboptimal";
    case InvariantCode::kOracleNotMonotone: return "oracle-not-monotone";
    case InvariantCode::kOracleScalingBroken: return "oracle-scaling-broken";
    case InvariantCode::kOracleRemovalVariant: return "oracle-removal-variant";
    case InvariantCode::kOracleOrderDependent: return "oracle-order-dependent";
  }
  return "unknown";
}

bool CheckReport::has(InvariantCode code) const {
  for (const Violation& v : violations)
    if (v.code == code) return true;
  return false;
}

std::string CheckReport::to_string() const {
  std::ostringstream os;
  for (const Violation& v : violations) {
    os << check::to_string(v.code);
    if (!v.app.empty()) os << " [app " << v.app << "]";
    if (v.element_scoped)
      os << " [" << (v.element.kind == ElementKey::Kind::kNcp ? "ncp #"
                                                              : "link #")
         << v.element.index << "]";
    if (v.slack != 0.0) os << " (slack " << v.slack << ")";
    os << ": " << v.detail << "\n";
  }
  return os.str();
}

CheckReport check_assignment(const AssignmentProblem& problem,
                             const AssignmentResult& result,
                             const CheckOptions& options) {
  CheckReport report;
  Collector out(report);
  if (!result.feasible) return report;  // nothing is claimed; nothing to check

  check_placement_structure(*problem.net, *problem.graph, problem.pinned,
                            result.placement, "", out);
  if (!report.ok()) return report;

  const double truth = bottleneck_rate(*problem.net, *problem.graph,
                                       result.placement, problem.capacities);
  if (!close(result.rate, truth, options.tolerance))
    out.add(InvariantCode::kRateNotBottleneck, "",
            "reported rate " + std::to_string(result.rate) +
                " != bottleneck formula " + std::to_string(truth),
            result.rate - truth);
  if (result.rate <= 0 ||
      result.rate == std::numeric_limits<double>::infinity())
    out.add(InvariantCode::kRateAccounting, "",
            "feasible result with non-positive or unbounded rate " +
                std::to_string(result.rate),
            result.rate);
  return report;
}

CheckReport check_scheduler_state(const Scheduler& scheduler,
                                  const CheckOptions& options) {
  CheckReport report;
  Collector out(report);
  const Network& net = scheduler.network();
  const std::set<ElementKey>& failed = scheduler.failed_elements();
  const double tol = options.tolerance;

  LoadMap total = LoadMap::zeros(net);      // Σ over all paths of rate·load
  LoadMap gr_total = LoadMap::zeros(net);   // GR share only (reservations)

  for (const PlacedApp& pa : scheduler.placed()) {
    const std::string& app = pa.app.name;
    const bool gr = pa.app.qoe.cls == QoeClass::kGuaranteedRate;

    if (pa.path_rates.size() != pa.paths.size()) {
      out.add(InvariantCode::kRateAccounting, app,
              "placed app with " + std::to_string(pa.paths.size()) +
                  " path(s) and " + std::to_string(pa.path_rates.size()) +
                  " rate(s)");
      continue;
    }
    if (pa.paths.empty()) {
      // Zero paths is a legitimate degraded state after failures (all of
      // the app's routes died and repair() found no replacement); it is
      // never legitimate on a pristine scheduler, and even degraded it
      // must carry no rate.
      if (options.assume_pristine)
        out.add(InvariantCode::kRateAccounting, app,
                "placed app with no paths on a pristine scheduler");
      else if (!close(pa.allocated_rate, 0.0, tol))
        out.add(InvariantCode::kRateAccounting, app,
                "path-less app still reports allocated rate " +
                    std::to_string(pa.allocated_rate),
                -pa.allocated_rate);
      continue;
    }

    double rate_sum = 0.0;
    for (std::size_t k = 0; k < pa.paths.size(); ++k) {
      const PathInfo& path = pa.paths[k];
      check_placement_structure(net, *pa.app.graph, pa.app.pinned,
                                path.placement, app, out);
      check_stored_path_views(net, *pa.app.graph, path, app, tol, out);

      const double r = pa.path_rates[k];
      if (r < -tol)
        out.add(InvariantCode::kRateAccounting, app,
                "path " + std::to_string(k) + " has negative rate " +
                    std::to_string(r),
                r);
      rate_sum += r;
      total.add_scaled(path.load, r);
      if (gr) gr_total.add_scaled(path.load, r);

      // A path crossing a failed element must not carry Best-Effort rate
      // (the PF re-solve blocks its column); GR reservations deliberately
      // persist until repair() and are exempt.
      if (!gr && r > tol)
        for (const ElementKey& e : path.elements)
          if (failed.contains(e))
            out.add_element(InvariantCode::kDeadPathCarriesRate, app, e,
                            "BE path " + std::to_string(k) + " crosses " +
                                element_name(net, e) +
                                " (failed) but carries rate " +
                                std::to_string(r),
                            -r);
    }

    if (!close(pa.allocated_rate, rate_sum, tol))
      out.add(InvariantCode::kRateAccounting, app,
              "allocated_rate " + std::to_string(pa.allocated_rate) +
                  " != sum of path rates " + std::to_string(rate_sum),
              pa.allocated_rate - rate_sum);

    if (gr) {
      // Admitted guarantee: at admission the reservation covers R_j, and on
      // a pristine scheduler it must still.  After failures repair() may
      // drop dead reservations it cannot replace, but then the scheduler's
      // own degradation reporting must acknowledge the shortfall.
      const double slack = pa.allocated_rate - pa.app.qoe.min_rate;
      if (slack < -tol * (1.0 + pa.app.qoe.min_rate)) {
        if (options.assume_pristine) {
          out.add(InvariantCode::kGrGuaranteeViolated, app,
                  "reserved rate " + std::to_string(pa.allocated_rate) +
                      " below guaranteed minimum " +
                      std::to_string(pa.app.qoe.min_rate),
                  slack);
        } else {
          const std::vector<std::string> degraded =
              scheduler.degraded_gr_apps();
          if (std::find(degraded.begin(), degraded.end(), app) ==
              degraded.end())
            out.add(InvariantCode::kGrGuaranteeViolated, app,
                    "reserved rate " + std::to_string(pa.allocated_rate) +
                        " below guaranteed minimum " +
                        std::to_string(pa.app.qoe.min_rate) +
                        " yet not reported by degraded_gr_apps()",
                    slack);
        }
      }

      // Min-rate availability (eq. (7)) still meets the admitted target.
      // Only enforceable pristine: failure-driven repair restores rate,
      // not the availability the original path set was admitted with.
      const double target = pa.app.qoe.min_rate_availability;
      if (options.assume_pristine && target > 0) {
        std::vector<std::vector<ElementKey>> element_sets;
        for (const PathInfo& pi : pa.paths)
          element_sets.push_back(pi.elements);
        const double achieved =
            element_sets.size() <= kMaxExactPaths
                ? min_rate_availability(net, element_sets, pa.path_rates,
                                        pa.app.qoe.min_rate)
                : min_rate_availability_mc(net, element_sets, pa.path_rates,
                                           pa.app.qoe.min_rate,
                                           options.mc_trials,
                                           options.mc_seed);
        // MC estimates carry sampling noise on top of the analytic slack.
        const double slack_avail =
            achieved - target +
            (element_sets.size() <= kMaxExactPaths
                 ? options.availability_tolerance
                 : 4.0 / std::sqrt(static_cast<double>(options.mc_trials)));
        if (slack_avail < 0)
          out.add(InvariantCode::kGrAvailabilityShort, app,
                  "min-rate availability " + std::to_string(achieved) +
                      " below admitted target " + std::to_string(target),
                  achieved - target);
      }
    }
  }

  // External (federated cross-shard) reservations hold capacity exactly
  // like GR reservations — fold them into both totals, so the capacity
  // check sees them as load and the residual check sees them as reserved.
  // Rebuilding from the reservation *table* (not the scheduler's
  // accumulated ext_reserved_) is what makes this a leak detector: a
  // release that failed to return capacity shows up as kResidualMismatch.
  for (const auto& [ext_name, ext] : scheduler.external_reservations()) {
    (void)ext_name;
    total.add_scaled_at(ext.elements, ext.load, 1.0);
    gr_total.add_scaled_at(ext.elements, ext.load, 1.0);
  }

  // Global capacity feasibility: Σ rate·load <= C on every element.
  for (NcpId j = 0; j < static_cast<NcpId>(net.ncp_count()); ++j)
    for (std::size_t r = 0; r < net.schema().size(); ++r) {
      const double cap = net.ncp(j).capacity[r];
      const double used = total.ncp_load(j)[r];
      if (used > cap + tol * (1.0 + cap))
        out.add_element(InvariantCode::kCapacityExceeded, "",
                        ElementKey::ncp(j),
                        net.schema().name(r) + " load " +
                            std::to_string(used) + " exceeds capacity " +
                            std::to_string(cap) + " on ncp " +
                            net.ncp(j).name,
                        cap - used);
    }
  for (LinkId l = 0; l < static_cast<LinkId>(net.link_count()); ++l) {
    const double cap = net.link(l).bandwidth;
    const double used = total.link_load(l);
    if (used > cap + tol * (1.0 + cap))
      out.add_element(InvariantCode::kCapacityExceeded, "",
                      ElementKey::link(l),
                      "bandwidth load " + std::to_string(used) +
                          " exceeds capacity " + std::to_string(cap) +
                          " on link " + net.link(l).name,
                      cap - used);
  }

  // Residual accounting: residual == full - GR reservations, failed zeroed.
  const CapacitySnapshot& residual = scheduler.gr_residual_capacities();
  auto expect_residual = [&](const ElementKey& e, std::size_t r,
                             double full_cap, double reserved) {
    const double expect =
        failed.contains(e) ? 0.0 : std::max(0.0, full_cap - reserved);
    const double got = residual.element(e, r);
    if (!close(got, expect, tol))
      out.add_element(InvariantCode::kResidualMismatch, "", e,
                      "residual " + std::to_string(got) + " != expected " +
                          std::to_string(expect) + " (" +
                          element_name(net, e) + ")",
                      got - expect);
  };
  for (NcpId j = 0; j < static_cast<NcpId>(net.ncp_count()); ++j)
    for (std::size_t r = 0; r < net.schema().size(); ++r)
      expect_residual(ElementKey::ncp(j), r, net.ncp(j).capacity[r],
                      gr_total.ncp_load(j)[r]);
  for (LinkId l = 0; l < static_cast<LinkId>(net.link_count()); ++l)
    expect_residual(ElementKey::link(l), 0, net.link(l).bandwidth,
                    gr_total.link_load(l));

  // Best-Effort proportional fairness: rebuild problem (4) exactly as the
  // scheduler does (residual capacities, one variable per usable path) and
  // compare the observed utility against a fresh solve.
  if (options.check_pf_optimality) {
    const std::size_t nr = net.schema().size();
    const std::size_t ncp_rows = net.ncp_count() * nr;
    PfProblem pf;
    pf.capacity.assign(ncp_rows + net.link_count(), 0.0);
    for (NcpId j = 0; j < static_cast<NcpId>(net.ncp_count()); ++j)
      for (std::size_t r = 0; r < nr; ++r)
        pf.capacity[j * nr + r] = residual.ncp(j)[r];
    for (LinkId l = 0; l < static_cast<LinkId>(net.link_count()); ++l)
      pf.capacity[ncp_rows + l] = residual.link(l);

    std::vector<double> observed;
    std::vector<std::string> included_apps;
    for (const PlacedApp& pa : scheduler.placed()) {
      if (pa.app.qoe.cls != QoeClass::kBestEffort) continue;
      bool app_included = false;
      std::size_t app_index = 0;
      for (std::size_t k = 0; k < pa.paths.size(); ++k) {
        PfProblem::Column col;
        bool blocked = false;
        for (const ElementKey& e : pa.paths[k].elements)
          if (failed.contains(e)) blocked = true;
        const LoadMap& load = pa.paths[k].load;
        for (NcpId j = 0; j < static_cast<NcpId>(net.ncp_count()); ++j)
          for (std::size_t r = 0; r < nr; ++r) {
            const double a = load.ncp_load(j)[r];
            if (a <= 0) continue;
            if (pf.capacity[j * nr + r] <= 0) blocked = true;
            col.entries.emplace_back(j * nr + r, a);
          }
        for (LinkId l = 0; l < static_cast<LinkId>(net.link_count()); ++l) {
          const double a = load.link_load(l);
          if (a <= 0) continue;
          if (pf.capacity[ncp_rows + l] <= 0) blocked = true;
          col.entries.emplace_back(ncp_rows + l, a);
        }
        if (blocked) continue;
        if (!app_included) {
          app_index = pf.app_priority.size();
          pf.app_priority.push_back(pa.app.qoe.priority);
          included_apps.push_back(pa.app.name);
          app_included = true;
        }
        pf.columns.push_back(std::move(col));
        pf.var_app.push_back(app_index);
        observed.push_back(pa.path_rates[k]);
      }
    }

    if (!pf.columns.empty()) {
      // An included app with zero observed total already fails PF (the
      // interior optimum gives every app a strictly positive rate).
      std::vector<double> app_sum(pf.app_count(), 0.0);
      for (std::size_t v = 0; v < observed.size(); ++v)
        app_sum[pf.var_app[v]] += observed[v];
      bool any_zero = false;
      for (std::size_t a = 0; a < app_sum.size(); ++a)
        if (app_sum[a] <= 0) {
          any_zero = true;
          out.add(InvariantCode::kBeNotPf, included_apps[a],
                  "usable BE path(s) but zero allocated rate — the PF "
                  "optimum is strictly positive");
        }
      if (!any_zero) {
        try {
          const PfSolution fresh = solve_weighted_pf(pf);
          const double got = pf_utility(pf, observed);
          if (fresh.converged &&
              got < fresh.utility -
                        options.pf_utility_tolerance *
                            (1.0 + std::abs(fresh.utility)))
            out.add(InvariantCode::kBeNotPf, "",
                    "observed BE utility " + std::to_string(got) +
                        " below re-solved optimum " +
                        std::to_string(fresh.utility),
                    got - fresh.utility);
        } catch (const std::exception& e) {
          out.add(InvariantCode::kBeNotPf, "",
                  std::string("PF re-solve rejected the committed paths: ") +
                      e.what());
        }
      }
    }
  }

  return report;
}

ScopedValidation::ScopedValidation(bool force, CheckOptions options) {
#ifdef NDEBUG
  if (!force) return;
#else
  (void)force;
#endif
  Scheduler::set_validation_hook([options](const Scheduler& scheduler) {
    const CheckReport report = check_scheduler_state(scheduler, options);
    if (!report.ok())
      throw std::logic_error("scheduler invariant violation:\n" +
                             report.to_string());
  });
  armed_ = true;
}

ScopedValidation::~ScopedValidation() {
  if (armed_) Scheduler::set_validation_hook(nullptr);
}

}  // namespace sparcle::check
