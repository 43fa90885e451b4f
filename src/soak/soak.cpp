#include "soak/soak.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <utility>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "check/invariants.hpp"
#include "energy/energy_model.hpp"
#include "federation/check.hpp"
#include "federation/federation.hpp"
#include "policy/policy.hpp"

namespace sparcle::soak {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------
// Decision digest: order-sensitive FNV-1a over every admission outcome.

struct Digest {
  std::uint64_t h{1469598103934665603ull};

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void str(const std::string& s) { bytes(s.data(), s.size()); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
};

// ---------------------------------------------------------------------
// Submit-latency histogram: log2 microsecond buckets, O(1) memory so the
// measurement cannot pollute the RSS-drift gate it runs next to.

struct LatencyHistogram {
  std::array<std::uint64_t, 40> buckets{};
  std::uint64_t total{0};

  void record(double us) {
    const auto v = static_cast<std::uint64_t>(std::max(0.0, us));
    std::size_t b = 0;
    while ((1ull << (b + 1)) <= v + 1 && b + 1 < buckets.size()) ++b;
    ++buckets[b];
    ++total;
  }
  /// Geometric bucket midpoint at quantile q (0 when empty).
  double quantile(double q) const {
    if (total == 0) return 0.0;
    const auto target = static_cast<std::uint64_t>(q * total);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      seen += buckets[b];
      if (seen > target)
        return std::sqrt(static_cast<double>(1ull << b) *
                         static_cast<double>(1ull << (b + 1)));
    }
    return static_cast<double>(1ull << (buckets.size() - 1));
  }
};

struct Departure {
  double time{0.0};
  std::string name;
  bool operator>(const Departure& o) const { return time > o.time; }
};

bool is_gr(const Application& app) {
  return app.qoe.cls == QoeClass::kGuaranteedRate;
}

/// Adds the modeled power of one application's paths at their allocated
/// rates (a PlacedApp or a federation::CrossApp) to `watts`.
template <class Placed>
void add_power(const EnergyModel& energy, const Placed& pa, double& watts) {
  for (std::size_t p = 0; p < pa.paths.size(); ++p) {
    const double rate = p < pa.path_rates.size() ? pa.path_rates[p] : 0.0;
    watts += energy.total_power(*pa.app.graph, pa.paths[p].placement, rate);
  }
}

// ---------------------------------------------------------------------
// The system under soak.  run_soak's one event loop drives either a raw
// Scheduler or a federation::FederatedService through this seam; each
// backend holds only what differs between the two.

class Backend {
 public:
  Backend() = default;
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;
  virtual ~Backend() = default;
  /// Submits one application; true when it was admitted.
  virtual bool submit(const Application& app) = 0;
  /// Folds the decision fields of `app`, just admitted, into `digest`
  /// (after the loop folded its name and verdict).
  virtual void fold_admission(const Application& app, Digest& digest) = 0;
  /// Removes a departing session; true when it was placed.
  virtual bool remove(const std::string& name) = 0;
  /// Marks the event's element failed or recovered, then repairs.
  virtual void churn(const sim::ChurnEvent& event) = 0;
  /// Fills the epoch's placed count and carried rates.
  virtual void sample(SoakEpoch& epoch) = 0;
  /// Runs the full invariant battery: empty when clean, else the
  /// violation message, with `where` (policy, scenario, seed, time)
  /// after the backend's own lead words.
  virtual std::string check(const std::string& where) = 0;
  /// Final carried rates and modeled energy of the placement.
  virtual void finish(SoakResult& result) = 0;
};

// One raw Scheduler.  The digest fingerprints the committed placement,
// not just the verdict: per-path CT hosts, then the allocated rate.
class SchedulerBackend final : public Backend {
 public:
  SchedulerBackend(const Network& net, SchedulerOptions options)
      : scheduler_(net, std::move(options)) {}

  bool submit(const Application& app) override {
    return scheduler_.submit(app).admitted;
  }
  void fold_admission(const Application& app, Digest& digest) override {
    for (const PlacedApp& pa : scheduler_.placed()) {
      if (pa.app.name != app.name) continue;
      for (const PathInfo& path : pa.paths)
        for (CtId i = 0; i < static_cast<CtId>(pa.app.graph->ct_count()); ++i)
          digest.u64(static_cast<std::uint64_t>(path.placement.ct_host(i) + 1));
      digest.f64(pa.allocated_rate);
      return;
    }
  }
  bool remove(const std::string& name) override {
    return scheduler_.remove(name);
  }
  void churn(const sim::ChurnEvent& event) override {
    if (event.fail)
      scheduler_.mark_failed(event.element);
    else
      scheduler_.mark_recovered(event.element);
    scheduler_.repair(event.element);
  }
  void sample(SoakEpoch& epoch) override {
    epoch.placed = scheduler_.placed().size();
    for (const PlacedApp& pa : scheduler_.placed())
      (is_gr(pa.app) ? epoch.gr_rate : epoch.be_rate) += pa.allocated_rate;
  }
  std::string check(const std::string& where) override {
    const check::CheckReport report = check::check_scheduler_state(scheduler_);
    if (report.ok()) return {};
    return "soak invariant failure: " + where + report.to_string();
  }
  void finish(SoakResult& result) override {
    const EnergyModel energy(scheduler_.network());
    for (const PlacedApp& pa : scheduler_.placed()) {
      (is_gr(pa.app) ? result.final_gr_rate : result.final_be_rate) +=
          pa.allocated_rate;
      add_power(energy, pa, result.energy_watts);
    }
  }

 private:
  Scheduler scheduler_;
};

// A federation::FederatedService over SoakOptions::federated_shards
// regional shards: shard-local arrivals run the stock per-shard pipeline,
// cross-shard arrivals one reserve round.  The invariant check is
// the federation conservation check, which runs the per-shard battery on
// every shard.  Per-CT hosts live inside the shards (and are covered by
// that battery), so the digest folds the admitted rate and path count:
// federated digests are comparable only to federated digests.
class FederatedBackend final : public Backend {
 public:
  FederatedBackend(const Network& net, federation::FederationOptions options)
      : fed_(net, std::move(options)) {}

  bool submit(const Application& app) override {
    last_ = fed_.submit(app).get();
    return last_.status == service::ServiceResult::Status::kAdmitted;
  }
  void fold_admission(const Application&, Digest& digest) override {
    digest.f64(last_.rate);
    digest.u64(last_.paths);
  }
  bool remove(const std::string& name) override {
    return fed_.remove(name).get().status ==
           service::ServiceResult::Status::kRemoved;
  }
  void churn(const sim::ChurnEvent& event) override {
    if (event.fail)
      fed_.mark_failed(event.element);
    else
      fed_.mark_recovered(event.element);
    fed_.repair(event.element);
  }
  void sample(SoakEpoch& epoch) override {
    const std::shared_ptr<const service::ServiceSnapshot> snap =
        fed_.snapshot();
    epoch.placed = snap->apps.size();
    epoch.gr_rate = snap->total_gr_rate;
    epoch.be_rate = snap->total_be_rate;
  }
  std::string check(const std::string& where) override {
    fed_.drain();
    const federation::ConservationReport report =
        federation::check_federation(fed_);
    if (report.ok()) return {};
    return "federated soak invariant failure: shards=" +
           std::to_string(fed_.shard_count()) + " " + where +
           report.to_string();
  }
  void finish(SoakResult& result) override {
    const std::shared_ptr<const service::ServiceSnapshot> snap =
        fed_.snapshot();
    result.final_gr_rate = snap->total_gr_rate;
    result.final_be_rate = snap->total_be_rate;
    // Shard-local placements priced against each shard's sub-network,
    // committed cross-shard paths against the full site.
    for (std::size_t s = 0; s < fed_.shard_count(); ++s) {
      const EnergyModel energy(fed_.plan().shards[s].net);
      fed_.shard(s).inspect([&](const Scheduler& sc) {
        for (const PlacedApp& pa : sc.placed())
          add_power(energy, pa, result.energy_watts);
      });
    }
    const EnergyModel energy(fed_.network());
    for (const auto& [name, ca] : fed_.cross_apps())
      add_power(energy, ca, result.energy_watts);
  }

 private:
  federation::FederatedService fed_;
  service::ServiceResult last_;  ///< the latest submit's outcome
};

std::unique_ptr<Backend> make_backend(
    const Network& net, const SoakOptions& options,
    std::shared_ptr<const policy::SchedulingPolicy> pol) {
  SchedulerOptions sched_options = options.scheduler;
  sched_options.policy = std::move(pol);
  if (options.federated_shards == 0)
    return std::make_unique<SchedulerBackend>(net, std::move(sched_options));
  federation::FederationOptions fed_options;
  fed_options.shards = options.federated_shards;
  fed_options.scheduler = std::move(sched_options);
  return std::make_unique<FederatedBackend>(net, std::move(fed_options));
}

}  // namespace

double process_rss_mb() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long pages = 0, resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<double>(resident) * static_cast<double>(page) /
         (1024.0 * 1024.0);
#else
  return 0.0;
#endif
}

Network make_soak_network(const SoakOptions& options) {
  Rng rng(options.seed ^ 0x5175e5);
  // A federated soak needs at least one region per shard.
  const std::size_t regions =
      std::max(options.regions, options.federated_shards);
  return workload::soak_site(regions, options.ncps_per_region, rng);
}

SoakResult run_soak(const SoakOptions& options) {
  const Network net = make_soak_network(options);
  return run_soak(net, options);
}

SoakResult run_soak(const Network& net, const SoakOptions& options) {
  SoakResult result;
  result.policy = options.policy;
  result.scenario = workload::to_string(options.arrivals.pattern);
  result.seed = options.seed;

  const std::shared_ptr<const policy::SchedulingPolicy> pol =
      policy::make_policy(options.policy);
  const std::unique_ptr<Backend> backend = make_backend(net, options, pol);

  workload::ArrivalGenerator gen(net, options.arrivals,
                                 options.seed ^ 0xa55a11);
  sim::ChurnTrace churn;
  if (options.churn)
    churn = sim::generate_burst_churn(net, options.burst,
                                      options.arrivals.horizon,
                                      options.seed ^ 0xc0ffee);

  policy::AdmissionQueue<workload::Arrival> pending;
  std::priority_queue<Departure, std::vector<Departure>, std::greater<>>
      departures;
  Digest digest;
  LatencyHistogram latency;

  const std::size_t stats_epochs = std::max<std::size_t>(2, options.stats_epochs);
  const std::size_t epoch_arrivals =
      std::max<std::size_t>(1, options.arrivals.arrivals / stats_epochs);
  // Which stats epochs also run the (expensive) invariant battery.
  const std::size_t check_every =
      options.invariant_epochs == 0
          ? 0
          : std::max<std::size_t>(1, stats_epochs / options.invariant_epochs);

  // Admission-rate drift windows: the first quarter of the stream is
  // warmup (the session population ramps to steady state), so the gate
  // compares arrivals [N/4, 5N/8) against [5N/8, N).
  const std::size_t total_arrivals = options.arrivals.arrivals;
  const std::size_t warm_lo = total_arrivals / 4;
  const std::size_t warm_mid = total_arrivals * 5 / 8;
  std::size_t admitted_window_a = 0, admitted_window_b = 0;

  const auto record_epoch = [&](double sim_time) {
    SoakEpoch e;
    e.sim_time = sim_time;
    e.arrivals = result.arrivals;
    e.admitted = result.admitted;
    backend->sample(e);
    e.rss_mb = process_rss_mb();
    result.epochs.push_back(e);
  };
  const auto check_invariants = [&](double sim_time) {
    std::ostringstream where;
    where << "policy=" << options.policy
          << " scenario=" << workload::to_string(options.arrivals.pattern)
          << " seed=" << options.seed << " sim_time=" << sim_time
          << " (rerun with SPARCLE_TEST_SEED=" << options.seed << ")\n";
    std::string violation = backend->check(where.str());
    if (!violation.empty()) result.violations.push_back(std::move(violation));
  };

  double now = 0.0;
  double next_tick = options.tick_seconds;
  std::size_t churn_at = 0;
  workload::Arrival upcoming;
  bool have_arrival = gen.next(upcoming);
  std::size_t epochs_recorded = 0;

  // Drains reneged entries, then admits up to the tick budget in queue
  // order.  Shared by ticks and the final flush.
  const auto run_tick = [&](double t) {
    // An arrival reneges once its patience lapses.
    result.reneged += std::erase_if(pending, [t](const auto& entry) {
      return entry.second.time + entry.second.patience < t;
    });
    for (std::size_t budget = options.admit_per_tick;
         budget > 0 && !pending.empty(); --budget) {
      const workload::Arrival arrival = std::move(pending.begin()->second);
      pending.erase(pending.begin());

      const auto t0 = std::chrono::steady_clock::now();
      const bool admitted = backend->submit(arrival.app);
      const auto t1 = std::chrono::steady_clock::now();
      latency.record(
          std::chrono::duration<double, std::micro>(t1 - t0).count());

      digest.str(arrival.app.name);
      digest.u64(admitted ? 1 : 0);
      if (admitted) {
        ++result.admitted;
        if (result.arrivals >= warm_lo && result.arrivals < warm_mid)
          ++admitted_window_a;
        else if (result.arrivals >= warm_mid)
          ++admitted_window_b;
        if (is_gr(arrival.app)) ++result.gr_admitted;
        backend->fold_admission(arrival.app, digest);
        departures.push({t + arrival.lifetime, arrival.app.name});
      } else {
        ++result.rejected;
      }
    }
  };

  // Event loop: arrivals, churn events, departures, and scheduler ticks
  // merged in time order (ties: departure, churn, tick, arrival — frees
  // capacity before spending it, deterministically).  The run ends once
  // the stream is exhausted and the queue drained: sessions still open
  // then ARE the final steady-state population the summary metrics
  // (carried rate, energy) are computed over.
  while (have_arrival || !pending.empty()) {
    const double t_arrival = have_arrival ? upcoming.time : kInf;
    const double t_depart =
        departures.empty() ? kInf : departures.top().time;
    const double t_churn =
        churn_at < churn.events.size() ? churn.events[churn_at].time : kInf;
    const double t_tick = pending.empty() && !have_arrival ? kInf : next_tick;
    const double t = std::min({t_arrival, t_depart, t_churn, t_tick});
    if (t == kInf) break;
    now = t;

    if (t_depart <= t) {
      const Departure d = departures.top();
      departures.pop();
      if (backend->remove(d.name)) ++result.departed;
      continue;
    }
    if (t_churn <= t) {
      backend->churn(churn.events[churn_at++]);
      ++result.churn_events;
      ++result.repairs;
      continue;
    }
    if (t_tick <= t) {
      run_tick(t);
      next_tick += options.tick_seconds;
      continue;
    }

    // Arrival.
    ++result.arrivals;
    if (is_gr(upcoming.app)) ++result.gr_arrivals;
    if (pending.size() >= options.queue_capacity) {
      ++result.queue_full;
    } else {
      // The policy keys the arrival once, as it joins the queue.
      const policy::QueueOrder order = policy::queue_order(
          *pol, policy::pending_app(upcoming.app,
                                    upcoming.time + upcoming.patience));
      pending.emplace(order, std::move(upcoming));
    }
    have_arrival = gen.next(upcoming);

    if (result.arrivals % epoch_arrivals == 0 &&
        epochs_recorded < stats_epochs) {
      record_epoch(now);
      ++epochs_recorded;
      if (check_every != 0 && epochs_recorded % check_every == 0)
        check_invariants(now);
    }
  }
  record_epoch(now);
  if (options.invariant_epochs != 0) check_invariants(now);

  // ------------------------------------------------------------------
  // Summary metrics.
  result.admit_ratio =
      result.arrivals == 0
          ? 0.0
          : static_cast<double>(result.admitted) / result.arrivals;
  result.gr_admit_ratio =
      result.gr_arrivals == 0
          ? 1.0
          : static_cast<double>(result.gr_admitted) / result.gr_arrivals;

  backend->finish(result);
  const double carried = result.final_gr_rate + result.final_be_rate;
  result.energy_efficiency =
      result.energy_watts > 0 ? carried / result.energy_watts : 0.0;
  result.submit_p50_us = latency.quantile(0.50);
  result.submit_p99_us = latency.quantile(0.99);
  result.decision_digest = digest.h;

  // RSS drift: warmed-up quarter epoch → last (allocator pools and the
  // scheduler's lazily built indexes settle during the first quarter).
  if (result.epochs.size() >= 4) {
    const double warm = result.epochs[result.epochs.size() / 4].rss_mb;
    const double end = result.epochs.back().rss_mb;
    if (warm > 0) result.rss_drift = (end - warm) / warm;
  }
  // Admitted-fraction drift between the two post-warmup windows.
  if (warm_mid > warm_lo && result.arrivals > warm_mid) {
    const double r1 = static_cast<double>(admitted_window_a) /
                      static_cast<double>(warm_mid - warm_lo);
    const double r2 = static_cast<double>(admitted_window_b) /
                      static_cast<double>(result.arrivals - warm_mid);
    if (r1 > 0) result.admit_rate_drift = std::abs(r2 - r1) / r1;
  }
  return result;
}

// ---------------------------------------------------------------------
// Tournament.

std::vector<std::string> tournament_scenarios() {
  std::vector<std::string> names;
  for (workload::ArrivalPattern p : workload::all_arrival_patterns())
    names.push_back(workload::to_string(p));
  return names;
}

SoakOptions cell_options(const std::string& scenario,
                         const std::string& policy, std::size_t arrivals,
                         std::uint64_t seed) {
  SoakOptions o;
  o.policy = policy;
  o.seed = seed;
  o.arrivals.pattern = workload::parse_arrival_pattern(scenario);
  o.arrivals.arrivals = arrivals;
  // Two full periods minimum so the half/half drift gate compares like
  // with like (diurnal: two days; flash_crowd: 24 bursts per half).
  o.arrivals.horizon =
      o.arrivals.pattern == workload::ArrivalPattern::kDiurnal ? 172800.0
                                                               : 86400.0;
  const double mean_rate =
      static_cast<double>(arrivals) / o.arrivals.horizon;
  // The cell's scale-invariant overload shape: the tick budget services
  // 1.3x the mean offered load whatever the arrival count, so the mean
  // is comfortable but a diurnal peak (1.85x) or flash burst (18x)
  // overruns the queue and forces real ordering/reneging decisions —
  // the regime where the admission decision point differentiates.
  o.admit_per_tick = 4;
  o.tick_seconds = o.admit_per_tick / (1.3 * mean_rate);
  o.arrivals.mean_patience = 4.0 * o.tick_seconds;
  // Session length targeting ~40 concurrently placed apps: enough that
  // capacity (not just the queue) is contended, small enough that a
  // submit stays milliseconds (the PF re-solve scales with population).
  o.arrivals.mean_lifetime =
      std::min(o.arrivals.horizon / 5.0, 40.0 / mean_rate);
  o.arrivals.gr_fraction = 0.2;
  switch (o.arrivals.pattern) {
    case workload::ArrivalPattern::kRegionalOutage:
      o.churn = true;
      o.burst.burst_rate = 1.0 / 1800.0;  // a regional burst every ~30 min
      o.burst.spread_prob = 0.7;
      o.burst.model.default_mttr = 120.0;
      break;
    case workload::ArrivalPattern::kTenantMix:
      o.arrivals.gr_fraction = 0.18;  // overridden per-tenant inside
      break;
    default:
      break;
  }
  return o;
}

TournamentReport run_tournament(const TournamentOptions& options) {
  const std::vector<std::string> policies =
      options.policies.empty() ? policy::policy_names() : options.policies;
  const std::vector<std::string> scenarios =
      options.scenarios.empty() ? tournament_scenarios() : options.scenarios;

  TournamentReport report;
  for (const std::string& scenario : scenarios) {
    // One network + one seed per scenario: every policy races identical
    // conditions (the arrival stream and churn trace replay bit for bit).
    for (const std::string& policy : policies) {
      SoakOptions cell = cell_options(scenario, policy,
                                      options.arrivals_per_cell,
                                      options.seed);
      cell.invariant_epochs = options.invariant_epochs;
      cell.federated_shards = options.federated_shards;
      report.cells.push_back({scenario, policy, run_soak(cell)});
    }
  }
  return report;
}

namespace {

double metric_of(const SoakResult& r, const std::string& metric) {
  if (metric == "admit_ratio") return r.admit_ratio;
  if (metric == "gr_admit_ratio") return r.gr_admit_ratio;
  if (metric == "energy_efficiency") return r.energy_efficiency;
  if (metric == "carried_rate") return r.final_gr_rate + r.final_be_rate;
  throw std::invalid_argument("unknown tournament metric '" + metric + "'");
}

void json_cell(std::ostringstream& out, const TournamentCell& cell) {
  const SoakResult& r = cell.result;
  out << "    {\"scenario\": \"" << cell.scenario << "\", \"policy\": \""
      << cell.policy << "\", \"arrivals\": " << r.arrivals
      << ", \"admitted\": " << r.admitted << ", \"rejected\": " << r.rejected
      << ", \"reneged\": " << r.reneged << ", \"queue_full\": " << r.queue_full
      << ", \"departed\": " << r.departed
      << ", \"churn_events\": " << r.churn_events
      << ", \"admit_ratio\": " << r.admit_ratio
      << ", \"gr_admit_ratio\": " << r.gr_admit_ratio
      << ", \"final_gr_rate\": " << r.final_gr_rate
      << ", \"final_be_rate\": " << r.final_be_rate
      << ", \"energy_watts\": " << r.energy_watts
      << ", \"energy_efficiency\": " << r.energy_efficiency
      << ", \"submit_p50_us\": " << r.submit_p50_us
      << ", \"submit_p99_us\": " << r.submit_p99_us
      << ", \"rss_drift\": " << r.rss_drift
      << ", \"admit_rate_drift\": " << r.admit_rate_drift
      << ", \"violations\": " << r.violations.size()
      << ", \"decision_digest\": \"" << std::hex << r.decision_digest
      << std::dec << "\"}";
}

}  // namespace

std::string TournamentReport::winner(const std::string& scenario,
                                     const std::string& metric) const {
  std::string best;
  double best_value = -kInf;
  for (const TournamentCell& cell : cells) {
    if (cell.scenario != scenario) continue;
    const double v = metric_of(cell.result, metric);
    if (v > best_value) {
      best_value = v;
      best = cell.policy;
    }
  }
  return best;
}

bool TournamentReport::ok() const {
  for (const TournamentCell& cell : cells)
    if (!cell.result.ok()) return false;
  return true;
}

std::string tournament_json(const TournamentReport& report,
                            const TournamentOptions& options) {
  std::ostringstream out;
  out.precision(6);
  out << "{\n  \"seed\": " << options.seed
      << ",\n  \"arrivals_per_cell\": " << options.arrivals_per_cell
      << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    json_cell(out, report.cells[i]);
    out << (i + 1 < report.cells.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"winners\": {\n";
  std::vector<std::string> scenarios;
  for (const TournamentCell& cell : report.cells)
    if (std::find(scenarios.begin(), scenarios.end(), cell.scenario) ==
        scenarios.end())
      scenarios.push_back(cell.scenario);
  const std::vector<std::string> metrics = {
      "admit_ratio", "gr_admit_ratio", "energy_efficiency", "carried_rate"};
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    out << "    \"" << scenarios[s] << "\": {";
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      out << "\"" << metrics[m] << "\": \""
          << report.winner(scenarios[s], metrics[m]) << "\""
          << (m + 1 < metrics.size() ? ", " : "");
    }
    out << "}" << (s + 1 < scenarios.size() ? ",\n" : "\n");
  }
  out << "  },\n  \"ok\": " << (report.ok() ? "true" : "false") << "\n}\n";
  return out.str();
}

std::string tournament_csv(const TournamentReport& report) {
  std::ostringstream out;
  out.precision(6);
  out << "scenario,policy,arrivals,admitted,rejected,reneged,queue_full,"
         "admit_ratio,gr_admit_ratio,final_gr_rate,final_be_rate,"
         "energy_watts,energy_efficiency,submit_p50_us,submit_p99_us,"
         "rss_drift,admit_rate_drift,violations\n";
  for (const TournamentCell& cell : report.cells) {
    const SoakResult& r = cell.result;
    out << cell.scenario << ',' << cell.policy << ',' << r.arrivals << ','
        << r.admitted << ',' << r.rejected << ',' << r.reneged << ','
        << r.queue_full << ',' << r.admit_ratio << ',' << r.gr_admit_ratio
        << ',' << r.final_gr_rate << ',' << r.final_be_rate << ','
        << r.energy_watts << ',' << r.energy_efficiency << ','
        << r.submit_p50_us << ',' << r.submit_p99_us << ',' << r.rss_drift
        << ',' << r.admit_rate_drift << ',' << r.violations.size() << '\n';
  }
  return out.str();
}

}  // namespace sparcle::soak
