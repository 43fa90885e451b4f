#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/scheduler.hpp"
#include "model/ids.hpp"
#include "model/network.hpp"

/// \file churn_injector.hpp
/// Deterministic fault injection for the admission scheduler: element
/// failure/recovery traces (generated from seeded stochastic models or
/// loaded from a file) are replayed against a Scheduler, driving its
/// repair() pass — the network-dynamics regime the paper
/// defers to future work.  docs/churn.md is the operator runbook.
///
/// Trace file format (line-oriented, `#` comments, scenario_io style):
///
///     churn v1
///     fail    <time> ncp:<name>
///     recover <time> link:<name>
///
/// Times are non-decreasing seconds; elements are named against the
/// Network the trace is replayed on.

namespace sparcle::sim {

/// One churn event: `element` fails (or recovers) at `time`.
struct ChurnEvent {
  double time{0.0};
  ElementKey element;
  bool fail{true};  ///< false: the element recovers

  friend bool operator==(const ChurnEvent&, const ChurnEvent&) = default;
};

/// A time-ordered failure/recovery schedule.
struct ChurnTrace {
  std::vector<ChurnEvent> events;  ///< non-decreasing in time
};

/// Reliability parameters for the stochastic trace generators.  Each
/// element alternates exponentially distributed up-times (mean MTBF) and
/// down-times (mean MTTR); per-element overrides refine the defaults.
struct ChurnModel {
  double default_mtbf{50.0};  ///< mean time between failures (s)
  double default_mttr{5.0};   ///< mean time to repair (s)
  /// Per-element mean overrides; elements not listed use the defaults.
  std::unordered_map<ElementKey, double> mtbf_override;
  std::unordered_map<ElementKey, double> mttr_override;
  bool include_ncps{true};   ///< NCPs participate in the failure process
  bool include_links{true};  ///< links participate in the failure process
};

/// Independent per-element renewal processes: every participating element
/// draws alternating exponential up/down periods from `model` until
/// `horizon`.  Deterministic in (`net` shape, `model`, `horizon`, `seed`);
/// events come out sorted by (time, element kind, element index).
ChurnTrace generate_poisson_churn(const Network& net, const ChurnModel& model,
                                  double horizon, std::uint64_t seed);

/// Correlated-burst model on top of ChurnModel's MTTR: burst epicenters
/// arrive as a Poisson process and knock out a topological neighborhood.
struct BurstChurnConfig {
  ChurnModel model{};        ///< MTTR (and overrides) for down-time draws
  double burst_rate{0.05};   ///< burst arrivals per second (Poisson)
  double spread_prob{0.6};   ///< chance each neighbor element joins a burst
  double spread_span{1.0};   ///< neighbor failures land within this window
};

/// Bursty, spatially correlated churn (a rack power dip, a mobile cluster
/// moving out of range): each burst picks an epicenter NCP uniformly,
/// fails it, and fails each incident link / adjacent NCP with probability
/// `spread_prob` at a uniform offset within `spread_span`.  Recoveries
/// follow per-element MTTR draws.  Deterministic in the same inputs as
/// generate_poisson_churn.
ChurnTrace generate_burst_churn(const Network& net,
                                const BurstChurnConfig& config, double horizon,
                                std::uint64_t seed);

/// Serializes a trace with elements named against `net` (round-trips
/// through parse_churn_trace).  Throws std::out_of_range on an element
/// index outside `net`.
std::string write_churn_trace(const ChurnTrace& trace, const Network& net);

/// Parses the trace format above, resolving element names against `net`.
/// Throws std::runtime_error with a "line N: ..." message on malformed
/// input, unknown element names, or decreasing timestamps.
ChurnTrace parse_churn_trace(std::istream& in, const Network& net);

/// Parses a trace from a string (convenience for tests).
ChurnTrace parse_churn_trace_text(const std::string& text, const Network& net);

/// Loads a trace from a file path; throws std::runtime_error if the file
/// cannot be opened.
ChurnTrace load_churn_trace_file(const std::string& path, const Network& net);

/// Aggregate outcome counters across all applied events.
struct ChurnInjectorStats {
  std::size_t failures{0};    ///< fail events applied
  std::size_t recoveries{0};  ///< recover events applied
  /// Events skipped because the element was already in the target state
  /// (e.g. a burst trace failing an element twice).
  std::size_t redundant{0};
  std::size_t apps_touched{0};  ///< summed over repairs, one per event
  std::size_t paths_dropped{0};
  std::size_t paths_added{0};
  std::size_t retries{0};
};

/// Replays a ChurnTrace against a live Scheduler, one event at a time:
/// `mark_failed`/`mark_recovered` followed by Scheduler::repair().
/// The caller owns the scheduler and may interleave its own submissions
/// between step()/run_until() calls — that is how the fuzzer mixes churn
/// into application workloads.  Deterministic: the same trace replayed
/// against schedulers in the same state produces identical end states.
class ChurnInjector {
 public:
  /// Events are stably sorted by time on construction (ties keep trace
  /// order, so replay order is reproducible).
  ChurnInjector(Scheduler& scheduler, ChurnTrace trace);

  /// True when every event has been applied.
  bool done() const { return next_ >= trace_.events.size(); }

  /// Timestamp of the next pending event; meaningless when done().
  double next_time() const;

  /// Applies the next pending event (and its repair pass).  Returns false
  /// when the trace is exhausted.
  bool step();

  /// Applies every pending event with `time <= until`; returns how many.
  std::size_t run_until(double until);

  /// Applies every remaining event; returns how many.
  std::size_t run_all();

  const ChurnInjectorStats& stats() const { return stats_; }
  const ChurnTrace& trace() const { return trace_; }

 private:
  Scheduler* scheduler_;
  ChurnTrace trace_;
  std::size_t next_{0};
  ChurnInjectorStats stats_;
};

}  // namespace sparcle::sim
