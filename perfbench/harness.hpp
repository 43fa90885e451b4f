#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/assignment.hpp"
#include "core/scheduler.hpp"
#include "model/application.hpp"
#include "model/network.hpp"

/// \file harness.hpp
/// The testable pieces of the admission benchmark: percentile and
/// generator-lateness arithmetic, the decision fingerprint, an in-memory
/// span recorder, the assign() timing decorator, and the bare-Scheduler
/// replay that attributes admission time to layers from outside src/.

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nearest-rank q-quantile: the smallest sample with at least q·n samples
/// at or below it.  0 for an empty sample.
double percentile(std::vector<double> samples, double q);

/// Samples ranked strictly above the nearest-rank q-quantile of n samples
/// (n − ⌈q·n⌉) — the ones the tail estimate actually rests on.
std::size_t samples_beyond(std::size_t n, double q);

/// Fewest samples for which at least `beyond` lie past the q-quantile
/// (200 for q = 0.95 and 10 beyond).
std::size_t min_samples_for(double q, std::size_t beyond);

/// Load-generator lateness: send time minus due time, per request.
struct Lateness {
  double p95_ms{0.0};
  double max_ms{0.0};
};
/// `due` and `sent` are aligned; a request sent early counts as 0 late.
Lateness lateness(const std::vector<Clock::time_point>& due,
                  const std::vector<Clock::time_point>& sent);

/// 64-bit FNV-1a over a byte stream.
class Fnv64 {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

/// One recorded span.  `parent` indexes the enclosing span (-1 at top
/// level); `id` is the request the span belongs to, shared by children.
struct Span {
  std::string name;
  std::uint64_t id{0};
  long parent{-1};
  double start_ms{0.0};
  double dur_ms{0.0};
};

/// Single-threaded in-memory span stack.
class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point origin = Clock::now())
      : origin_(origin) {}
  /// Opens a span nested in the innermost open one; id 0 inherits the
  /// parent's id.  Returns the span's index.
  std::size_t begin(std::string name, std::uint64_t id = 0);
  /// Closes the innermost open span.
  void end();
  /// Appends an already-measured span (no nesting).
  std::size_t add(std::string name, std::uint64_t id, long parent,
                  Clock::time_point start, Clock::time_point end);
  const std::vector<Span>& spans() const { return spans_; }
  /// Each span's duration minus the part its direct children cover.
  std::vector<double> self_ms() const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Assigner decorator: records one "assign" span around every call into
/// the wrapped assigner, nested under whatever span is open.  Decisions
/// are the wrapped assigner's, untouched.
class TimingAssigner : public sparcle::Assigner {
 public:
  TimingAssigner(std::unique_ptr<sparcle::Assigner> inner, SpanRecorder* spans)
      : inner_(std::move(inner)), spans_(spans) {}
  std::string name() const override { return inner_->name(); }
  sparcle::AssignmentResult assign(
      const sparcle::AssignmentProblem& problem) const override;

 private:
  std::unique_ptr<sparcle::Assigner> inner_;
  SpanRecorder* spans_;
};

/// One request of a batch schedule, naming an arrival by index.
struct Op {
  bool remove{false};
  std::size_t arrival{0};
  bool operator==(const Op&) const = default;
};
/// The requests of one scheduler batch, in the order they are applied.
using Batch = std::vector<Op>;

/// Outcome of one submit: admitted, and where each committed path put
/// every CT.
struct Decision {
  bool admitted{false};
  std::vector<std::vector<sparcle::NcpId>> hosts;  ///< per path, per CT
};

/// FNV digest over (app, admitted, path count, CT hosts per path), in the
/// order the submits were applied.
std::uint64_t fingerprint(const std::vector<sparcle::Application>& apps,
                          const std::vector<std::size_t>& order,
                          const std::map<std::size_t, Decision>& decisions);

/// A fixed batch schedule over `local` (ascending arrival indices): each
/// batch holds the departures due by its first submit (an app departs
/// once the arrival `window` positions after it is due), then the next
/// `per_batch` submits.  Departures of apps a replay rejected come back
/// not found.
std::vector<Batch> shard_schedule(const std::vector<std::size_t>& local,
                                  std::size_t window, std::size_t per_batch);

struct ReplayOptions {
  /// Assigner eval threads (0 = auto, as the service runs).
  int eval_threads{0};
  /// Wrap the assigner in TimingAssigner (false = default Scheduler).
  bool timing{true};
};

/// What a replay measured.  Span names: "submit", "remove", "end_batch"
/// (each top level, id = arrival index + 1), "assign" (child of submit).
struct ReplayResult {
  std::map<std::size_t, Decision> decisions;  ///< by arrival index
  std::vector<std::size_t> order;             ///< submits, applied order
  std::size_t removes_not_found{0};
  /// Submits that threw; like the service, the replay rejects them.
  std::size_t exceptions{0};
  std::size_t gr_submits{0};
  SpanRecorder spans;
  /// Per end_batch that ran a PF solve: its wall time, and the BE path
  /// variables the solve covered.
  std::vector<double> solve_ms;
  double solve_vars{0.0};
  sparcle::Scheduler::PfSolverStats pf;
  /// Final allocated rate per placed app (bit-identity checks).
  std::map<std::string, double> rates;
};

/// Applies `schedule` to a fresh Scheduler on `net` exactly as
/// SchedulerService::process_batch does (begin_batch, the batch's
/// submits/removes in order, end_batch, evicted BE admissions become
/// rejections), timing every call.
ReplayResult replay(const sparcle::Network& net,
                    const std::vector<sparcle::Application>& apps,
                    const std::vector<Batch>& schedule,
                    const ReplayOptions& options = {});

}  // namespace perfbench
