#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "model/network.hpp"
#include "sim/churn_injector.hpp"
#include "workload/arrivals.hpp"

/// \file soak.hpp
/// Long-horizon soak engine and policy tournament (docs/policies.md).
///
/// run_soak() replays one adversarial arrival stream (workload/arrivals)
/// against a Scheduler carrying one scheduling-policy plugin — or, with
/// SoakOptions::federated_shards, a FederatedService whose shards carry
/// it; one event loop drives either backend — through a bounded
/// admission queue that models the batched admission daemon:
/// arrivals queue up keyed once by the policy's admission_key(), a
/// scheduler *tick* every `tick_seconds` admits up to `admit_per_tick` of
/// them least key first (equal keys in arrival order), and queued
/// entries renege once their patience lapses.
/// Admitted applications live an exponential session and depart;
/// regional-outage cells interleave a correlated burst-churn trace
/// driving the incremental repair() path.  The run records:
///
///   * cumulative counters (admitted / rejected / reneged / queue-full),
///   * sampled epochs (carried rates, placed count, process RSS),
///   * full invariant checks (check_scheduler_state, or the federation
///     conservation check) at sampled epochs — every violation string
///     carries the seed and policy for replay,
///   * an order-sensitive FNV-1a digest of every admission decision, the
///     determinism witness of tests/test_policy.cpp,
///   * drift gates: RSS growth between the warmed-up quarter epoch and
///     the end, and admitted-fraction drift between two post-warm-up
///     windows of the stream.
///
/// run_tournament() sweeps the policies × scenarios matrix — every
/// policy races the *identical* network, arrival stream, and churn trace
/// within a scenario — and the report writers emit the comparative
/// JSON/CSV that sparcle_soak prints and tools/soak.sh records.

namespace sparcle::soak {

struct SoakOptions {
  /// Registry name (policy::make_policy) of the plugin under test.
  std::string policy{"default"};
  workload::ArrivalSpec arrivals{};
  std::uint64_t seed{1};
  /// Admission-queue bound; arrivals beyond it are dropped (queue_full).
  std::size_t queue_capacity{64};
  /// Scheduler tick period (simulated seconds) and per-tick admission
  /// budget: queues only build — and admission *order* only matters —
  /// because ticks are slower than burst arrivals.
  double tick_seconds{5.0};
  std::size_t admit_per_tick{8};
  /// Interleave a correlated burst-churn trace (regional_outage cells).
  bool churn{false};
  sim::BurstChurnConfig burst{};
  /// Epoch sampling: stats rows, and how many of them also run the full
  /// invariant battery (0 disables checking).
  std::size_t stats_epochs{32};
  std::size_t invariant_epochs{4};
  /// Soak-site shape (workload::soak_site).
  std::size_t regions{4};
  std::size_t ncps_per_region{6};
  /// Base scheduler configuration; `policy` is installed on a copy.
  SchedulerOptions scheduler{};
  /// When positive, the soak drives a federation::FederatedService over
  /// this many regional shards instead of one raw Scheduler — shard-local
  /// arrivals run the stock per-shard pipeline, cross-shard arrivals are
  /// admitted in one reserve round — and every invariant epoch runs
  /// the per-shard checker plus the federation conservation check
  /// (federation/check.hpp).  `regions` is raised to at least this many
  /// shards.  0 = the classic single-scheduler soak.
  std::size_t federated_shards{0};
};

/// One sampled stats row (cumulative counters as of `sim_time`).
struct SoakEpoch {
  double sim_time{0.0};
  std::size_t arrivals{0};
  std::size_t admitted{0};
  std::size_t placed{0};   ///< currently-placed applications
  double gr_rate{0.0};     ///< Σ allocated rate over placed GR apps
  double be_rate{0.0};     ///< Σ allocated rate over placed BE apps
  double rss_mb{0.0};      ///< process RSS (0 where unsupported)
};

struct SoakResult {
  std::string policy;
  std::string scenario;
  std::uint64_t seed{0};

  std::size_t arrivals{0};
  std::size_t admitted{0};
  std::size_t rejected{0};    ///< submitted but refused by admission control
  std::size_t reneged{0};     ///< patience lapsed while queued
  std::size_t queue_full{0};  ///< dropped at a full queue
  std::size_t departed{0};    ///< sessions removed after their lifetime
  std::size_t gr_arrivals{0};
  std::size_t gr_admitted{0};
  std::size_t churn_events{0};
  std::size_t repairs{0};

  double admit_ratio{0.0};     ///< admitted / arrivals
  double gr_admit_ratio{0.0};  ///< gr_admitted / gr_arrivals (1 if none)
  double final_gr_rate{0.0};
  double final_be_rate{0.0};
  double energy_watts{0.0};       ///< Σ modeled power over final placement
  double energy_efficiency{0.0};  ///< carried rate per watt (data/Joule)
  double submit_p50_us{0.0};      ///< wall-clock submit() latency
  double submit_p99_us{0.0};
  /// Relative RSS growth from the warmed-up quarter epoch to the last
  /// (negative = shrank); NaN-free, 0 where RSS is unsupported.
  double rss_drift{0.0};
  /// |late admit ratio − early admit ratio| / early admit ratio, where
  /// early counts arrivals [N/4, 5N/8) and late [5N/8, N) of the N-arrival
  /// stream (the first quarter is warm-up).
  double admit_rate_drift{0.0};
  /// Order-sensitive FNV-1a fingerprint of every admission decision —
  /// bit-identical runs produce equal digests.  Each backend folds its
  /// own fields: the single scheduler the name, verdict, per-path CT
  /// hosts and allocated rate bits; the federation the name, verdict,
  /// rate bits and path count.  Federated digests are therefore
  /// comparable only to federated digests.
  std::uint64_t decision_digest{0};

  std::vector<SoakEpoch> epochs;
  /// Invariant-check failures, each prefixed with seed/policy/sim-time.
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
};

/// Process resident-set size in MiB via /proc/self/statm; 0.0 where the
/// proc filesystem is unavailable (non-Linux).
double process_rss_mb();

/// The deterministic soak network for `options` (seed + shape).
Network make_soak_network(const SoakOptions& options);

/// Replays the soak against a caller-supplied network (the tournament
/// shares one network across a scenario's policies).
SoakResult run_soak(const Network& net, const SoakOptions& options);
/// Convenience: builds make_soak_network(options) and runs on it.
SoakResult run_soak(const SoakOptions& options);

// ---------------------------------------------------------------------
// Tournament: policies × scenarios.

struct TournamentOptions {
  /// Policies to race; empty = policy::policy_names().
  std::vector<std::string> policies;
  /// Scenario names (arrival-pattern names); empty = every pattern.
  std::vector<std::string> scenarios;
  std::size_t arrivals_per_cell{20000};
  std::uint64_t seed{1};
  std::size_t invariant_epochs{2};
  /// Run every cell against a federated site with this many shards
  /// (SoakOptions::federated_shards); 0 = single-scheduler cells.
  std::size_t federated_shards{0};
};

/// Every scenario name, in report order (= arrival-pattern names).
std::vector<std::string> tournament_scenarios();

/// The per-cell soak configuration: scenario-specific arrival shape
/// (horizon, patience, GR mix, churn pairing) with the session length
/// auto-scaled so the site carries a contended steady-state population
/// regardless of the arrival count.
SoakOptions cell_options(const std::string& scenario,
                         const std::string& policy, std::size_t arrivals,
                         std::uint64_t seed);

struct TournamentCell {
  std::string scenario;
  std::string policy;
  SoakResult result;
};

struct TournamentReport {
  std::vector<TournamentCell> cells;  ///< scenario-major, policy-minor

  /// Policy with the best `metric` ("admit_ratio", "gr_admit_ratio",
  /// "energy_efficiency", "carried_rate") in `scenario`; ties keep the
  /// earlier policy.  Empty string when the scenario is absent.
  std::string winner(const std::string& scenario,
                     const std::string& metric) const;
  /// True when every cell passed its invariant checks.
  bool ok() const;
};

TournamentReport run_tournament(const TournamentOptions& options);

/// Comparative report: one JSON object with a row per cell plus a
/// per-scenario winners block (the BENCH_tournament.json payload).
std::string tournament_json(const TournamentReport& report,
                            const TournamentOptions& options);
/// The same matrix as CSV (header + one row per cell).
std::string tournament_csv(const TournamentReport& report);

}  // namespace sparcle::soak
