/// \file admbench.cpp
/// The admission benchmark: two workloads driven in-process through
/// service::PlacementService (SchedulerService or FederatedService) with
/// the non-blocking submit_async / remove_async calls the event server
/// makes, configured as sparcle_serve ships (the service registry
/// installed as the global metrics sink, a DecisionLog, no Chrome trace).
///
///   admbench --workload <pf96|fed16> [--seed N] [--seconds S]
///            [--trace 0|1] [--out-dir DIR]
///
/// --trace 0 times setup, a saturation phase and a paced open-loop phase
/// and prints the end-to-end metrics; --trace 1 reruns the workload with
/// per-request spans, replays it through a bare Scheduler for per-layer
/// attribution, and prints the per-layer metrics.  The last stdout line
/// is one JSON object {correct, attempted, failed, metrics}.  See
/// README.md in this directory for the metric definitions.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "check/invariants.hpp"
#include "core/parallel.hpp"
#include "federation/check.hpp"
#include "federation/federation.hpp"
#include "harness.hpp"
#include "obs/obs.hpp"
#include "service/scheduler_service.hpp"
#include "workload/arrivals.hpp"
#include "workload/rng.hpp"

namespace {

using namespace sparcle;
using perfbench::Batch;
using perfbench::Clock;
using perfbench::percentile;
using service::ServiceResult;
using Status = service::ServiceResult::Status;

constexpr std::uint64_t kDefaultSeed = 20260808;
/// Second seed, held out: tune on the default, confirm claims on this one.
constexpr std::uint64_t kHoldoutSeed = 20261016;
/// The application stream of every run, whatever --seed (ROADMAP's seed).
/// Admission cost depends strongly on which apps are in flight together,
/// so a fixed stream makes every run do the same admission work; --seed
/// orders the paced phase's gaps, so seeds vary when the work arrives.
constexpr std::uint64_t kStreamSeed = 20260808;
/// Arrivals per saturation or paced block, after the W prefill arrivals.
constexpr std::size_t kBlock = 50;
constexpr double kReadHz = 20.0;
/// Timed set-ups in each half of a run (before and after its phases): at
/// least kHalfSetups covering at least kHalfSetupSeconds.
constexpr std::size_t kHalfSetups = 3;
constexpr double kHalfSetupSeconds = 1.5;
/// Trace overhead: pairs of sessions, and saturation blocks each times.
constexpr std::size_t kOverheadPairs = 5;
constexpr std::size_t kOverheadBlocks = 4;

struct Workload {
  std::string name;
  std::size_t regions;
  std::size_t ncps_per_region;
  std::size_t shards;       ///< 0 = one SchedulerService
  std::size_t window;       ///< W: arrivals in flight before a departure
  double paced_rate;        ///< paced-phase submits per second
  /// Paced blocks (= measurement rounds); 4 blocks are 200 submits, the
  /// fewest that leave ten samples beyond p95.
  std::size_t paced_blocks;
  /// Saturation throughput of the seed build on a 4-vCPU host: sizes the
  /// saturation phase's fixed amount of work from --seconds.
  double nominal_tput;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"pf96", 4, 16, 0, 96, 6.0, 4, 110.0},
      {"fed16", 32, 64, 16, 64, 20.0, 6, 75.0},
  };
  return all;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, end) : "0";
}

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

/// Replies from service threads to the generator thread.
struct Reply {
  std::size_t arrival{0};
  bool remove{false};
  ServiceResult result;
  Clock::time_point at;
};

class Inbox {
 public:
  void push(Reply r) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      q_.push_back(std::move(r));
    }
    cv_.notify_one();
  }
  /// Everything queued, waiting until `deadline` for at least one reply.
  std::deque<Reply> take(Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_until(lock, deadline, [this] { return !q_.empty(); });
    std::deque<Reply> out;
    out.swap(q_);
    return out;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Reply> q_;
};

/// Seeded Fisher–Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t k = v.size(); k > 1; --k)
    std::swap(v[k - 1], v[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(k) - 1))]);
}

enum Phase : int { kUnsent = -1, kPrefill = 0, kSaturation = 1, kPaced = 2 };

struct Arrival {
  int phase{kUnsent};
  bool answered{false};
  bool admitted{false};
  Clock::time_point due, sent, replied;
  service::RequestTimeline timeline;
};

/// Failure tallies, kept apart from admission-control rejections.
struct Failures {
  std::map<std::string, std::size_t> by_kind;
  std::size_t total() const {
    std::size_t n = 0;
    for (const auto& [k, v] : by_kind) n += v;
    return n;
  }
  void add(const std::string& kind) { ++by_kind[kind]; }
};

const char* failure_kind(Status s) {
  switch (s) {
    case Status::kQueueFull: return "queue_full";
    case Status::kDeadlineExceeded: return "deadline_exceeded";
    case Status::kShutdown: return "shutdown";
    case Status::kNotFound: return "not_found";
    default: return "unexpected_status";
  }
}

struct PhaseStats {
  double seconds{0.0};
  std::size_t answered{0};  ///< submits answered, admitted or rejected
  std::size_t admitted{0};
};

/// One set-up service with its arrival stream.  Construction is the
/// benchmark's set-up: site, service, sinks, prefill to W in flight.
class Session {
 public:
  Session(const Workload& w, std::uint64_t seed, bool tracing)
      : w_(w), tracing_(tracing), schedule_rng_(seed) {
    Rng site_rng(42);
    net_ = workload::soak_site(w.regions, w.ncps_per_region, site_rng);
    workload::ArrivalSpec spec;
    spec.pattern = workload::ArrivalPattern::kSteady;
    spec.arrivals = 1000000;
    spec.horizon = static_cast<double>(spec.arrivals);
    spec.gr_fraction = 0.1;
    spec.locality = 0.9;
    gen_ = std::make_unique<workload::ArrivalGenerator>(net_, spec,
                                                         kStreamSeed);
    if (w.shards > 0) {
      federation::FederationOptions options;
      options.shards = w.shards;
      auto fed = std::make_unique<federation::FederatedService>(net_, options);
      fed_ = fed.get();
      svc_ = std::move(fed);
    } else {
      auto one = std::make_unique<service::SchedulerService>(net_);
      one_ = one.get();
      svc_ = std::move(one);
    }
    max_batch_ = service::ServiceOptions{}.max_batch;
    obs::Observability sinks;
    sinks.metrics = &svc_->registry();
    sinks.decisions = &decisions_;
    obs::install(sinks);
    if (staged()) {
      while (next_ < w_.window) stage(kPrefill, w_.window);
    } else {
      while (next_ < w_.window) send_submit(next_, kPrefill, Clock::now());
      wait_idle();
    }
  }

  ~Session() {
    svc_->stop();
    obs::uninstall();
  }

  bool staged() const { return one_ != nullptr; }
  service::PlacementService& svc() { return *svc_; }
  federation::FederatedService* fed() { return fed_; }
  const Network& net() const { return net_; }
  const std::vector<Application>& apps() const { return apps_; }
  const std::vector<Arrival>& arrivals() const { return arr_; }
  const std::vector<Batch>& schedule() const { return schedule_; }
  const std::vector<perfbench::Span>& spans() const { return spans_.spans(); }
  std::size_t attempted() const { return attempted_; }
  Failures& failures() { return failures_; }

  /// What the measured rounds saw.
  struct Measured {
    PhaseStats sat;                  ///< all saturation blocks
    PhaseStats paced;                ///< all paced blocks
    std::vector<double> latency_ms;  ///< paced due → reply, answered submits
    std::vector<std::size_t> index;  ///< arrival of each latency sample
    std::vector<double> read_ms;     ///< read-stream call durations
    std::vector<Clock::time_point> due, sent;  ///< paced submits
    /// Staged batches applied before the first paced block: the part of
    /// the run whose request sequence does not depend on timing.
    std::size_t prefix_batches{0};
    /// Service requests and batches during saturation (batch fill).
    double sat_requests{0.0}, sat_batches{0.0};
  };

  /// Rounds of `sat_blocks` saturation blocks followed by one paced
  /// block, so both phases sample the whole run's machine state.
  Measured measure(std::size_t sat_blocks) {
    Measured m;
    for (std::size_t r = 0; r < w_.paced_blocks; ++r) {
      const service::ServiceStats before = svc_->stats();
      saturate(sat_blocks, m.sat);
      const service::ServiceStats after = svc_->stats();
      m.sat_requests += static_cast<double>(after.submits + after.removes -
                                            before.submits - before.removes);
      m.sat_batches += static_cast<double>(after.batches - before.batches);
      if (r == 0) m.prefix_batches = schedule_.size();
      paced_block(m);
    }
    return m;
  }

  /// `sat_blocks` saturation blocks alone, their wall (trace overhead).
  double first_round(std::size_t sat_blocks) {
    PhaseStats acc;
    saturate(sat_blocks, acc);
    return acc.seconds;
  }

  /// Untimed correctness gate on the drained service.
  bool check(std::string* why) {
    svc_->drain();
    if (fed_ != nullptr) {
      const federation::ConservationReport report =
          federation::check_federation(*fed_);
      if (!report.ok()) *why = report.to_string();
      return report.ok();
    }
    check::CheckReport report;
    const bool ran = one_->inspect(
        [&](const Scheduler& s) { report = check::check_scheduler_state(s); });
    if (!ran) *why = "inspect did not run";
    else if (!report.ok()) *why = report.to_string();
    return ran && report.ok();
  }

 private:
  /// Saturation: `blocks` whole blocks of arrivals, as fast as the
  /// service answers them; staged batches where the service allows it.
  void saturate(std::size_t blocks, PhaseStats& acc) {
    const auto t0 = Clock::now();
    const std::size_t first = next_;
    const std::size_t last = next_ + blocks * kBlock;
    if (staged()) {
      while (next_ < last) stage(kSaturation, last);
    } else {
      // Closed loop: 4×max_batch requests outstanding, departures as due.
      const std::size_t cap = 4 * max_batch_;
      for (;;) {
        if (next_ < last) {
          issue_departures(cap);
          while (outstanding_ < cap && next_ < last)
            send_submit(next_, kSaturation, Clock::now());
        }
        if (outstanding_ == 0) break;
        for (Reply& r : inbox_.take(Clock::now() + std::chrono::seconds(5)))
          on_reply(r);
      }
    }
    acc.seconds += s_between(t0, Clock::now());
    for (std::size_t i = first; i < next_; ++i) {
      if (!arr_[i].answered) continue;
      ++acc.answered;
      if (arr_[i].admitted) ++acc.admitted;
    }
  }

  /// One open-loop block on the seeded Poisson schedule at the workload's
  /// rate, with the read stream beside it.  The block's exponential gaps
  /// are stratified, its kBlock quantiles at (k + 1/2)/kBlock in seeded
  /// order: every seed paces a block over the same gaps, and seeds vary
  /// which of them fall together.
  void paced_block(Measured& m) {
    std::vector<double> gaps(kBlock);
    for (std::size_t k = 0; k < kBlock; ++k)
      gaps[k] = -std::log(1.0 - (static_cast<double>(k) + 0.5) / kBlock) /
                w_.paced_rate;
    shuffle(gaps, schedule_rng_);
    const std::size_t first = next_;
    const auto t0 = Clock::now() + std::chrono::milliseconds(5);
    std::jthread reader([&](std::stop_token stop) {
      for (std::size_t k = 0;; ++k) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(k / kReadHz)));
        if (stop.stop_requested()) break;
        const auto s = Clock::now();
        const auto snap = svc_->snapshot();
        const std::string text = svc_->prometheus_text();
        m.read_ms.push_back(ms_between(s, Clock::now()));
      }
    });
    double offset_s = 0.0;  // due time of the next submit
    for (const double gap : gaps) {
      offset_s += gap;
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(offset_s));
      while (Clock::now() < due) {
        for (Reply& r : inbox_.take(due)) on_reply(r);
        if (!staged()) issue_departures(SIZE_MAX);
      }
      // On SchedulerService the due departures and the submit go in as one
      // staged batch, so each arrival costs one PF solve.  Sent apart, the
      // removes ran as batches of their own, a second solve per arrival;
      // the submits that came while one ran waited for it, and their
      // share, which moved with the host's speed, set the median.
      if (staged()) one_->pause();
      issue_departures(SIZE_MAX);
      send_submit(next_, kPaced, due);
      if (staged()) one_->resume();
      m.due.push_back(due);
      m.sent.push_back(arr_[next_ - 1].sent);
    }
    const auto t_end = Clock::now();
    reader.request_stop();
    reader.join();
    wait_idle();
    m.paced.seconds += s_between(t0, t_end);
    for (std::size_t i = first; i < next_; ++i) {
      const Arrival& a = arr_[i];
      if (!a.answered) continue;
      ++m.paced.answered;
      if (a.admitted) ++m.paced.admitted;
      m.latency_ms.push_back(ms_between(a.due, a.replied));
      m.index.push_back(i);
    }
  }

  /// Materializes the stream through arrival `i`.
  void ensure(std::size_t i) {
    workload::Arrival a;
    while (apps_.size() <= i) {
      if (!gen_->next(a)) throw std::runtime_error("arrival stream exhausted");
      apps_.push_back(std::move(a.app));
      arr_.emplace_back();
    }
  }

  void send_submit(std::size_t i, int phase, Clock::time_point due) {
    ensure(i);
    next_ = std::max(next_, i + 1);
    Arrival& a = arr_[i];
    a.phase = phase;
    a.due = due;
    a.sent = Clock::now();
    ++outstanding_;
    ++attempted_;
    svc_->submit_async(apps_[i], [this, i](ServiceResult r) {
      inbox_.push({i, false, std::move(r), Clock::now()});
    });
  }

  void send_remove(std::size_t j) {
    live_.erase(j);
    ++outstanding_;
    ++attempted_;
    svc_->remove_async(apps_[j].name, [this, j](ServiceResult r) {
      inbox_.push({j, true, std::move(r), Clock::now()});
    });
  }

  /// Departs every answered admitted app whose W-later arrival was sent.
  void issue_departures(std::size_t cap) {
    while (!live_.empty() && *live_.begin() + w_.window <= next_ &&
           outstanding_ < cap)
      send_remove(*live_.begin());
  }

  void on_reply(Reply& r) {
    --outstanding_;
    const Status st = r.result.status;
    if (r.remove) {
      if (st != Status::kRemoved) failures_.add(failure_kind(st));
      return;
    }
    Arrival& a = arr_[r.arrival];
    a.answered = true;
    a.replied = r.at;
    a.timeline = r.result.timeline;
    if (st == Status::kAdmitted) {
      a.admitted = true;
      live_.insert(r.arrival);
    } else if (st != Status::kRejected) {
      a.answered = false;  // a failure, not a decision
      failures_.add(failure_kind(st));
    }
    if (tracing_) record_spans(r.arrival);
  }

  /// One span per request (due → reply) with the late-send gap and the
  /// service timeline stages as children sharing the request id.
  void record_spans(std::size_t i) {
    const Arrival& a = arr_[i];
    const std::uint64_t id = i + 1;
    const auto at = [&](double ms) {
      return a.sent + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(ms));
    };
    const long root = static_cast<long>(spans_.add(
        a.phase == kPaced ? "paced" : "request", id, -1, a.due, a.replied));
    spans_.add("late", id, root, a.due, a.sent);
    const service::RequestTimeline& t = a.timeline;
    double off = 0.0;
    for (const auto& [name, us] :
         {std::pair<const char*, double>{"queue", t.queue_us},
          {"batch", t.batch_us},
          {"apply", t.apply_us},
          {"solve", t.solve_us},
          {"reply", t.reply_us}}) {
      spans_.add(name, id, root, at(off), at(off + us / 1000.0));
      off += us / 1000.0;
    }
  }

  void wait_idle() {
    while (outstanding_ > 0)
      for (Reply& r : inbox_.take(Clock::now() + std::chrono::seconds(5)))
        on_reply(r);
  }

  /// One staged service batch: the due departures, then submits up to
  /// max_batch, enqueued while the scheduling thread is paused so the
  /// batch composition (and so every decision) is independent of timing.
  void stage(int phase, std::size_t end) {
    std::vector<std::size_t> removes;
    for (std::size_t j : live_) {
      if (j + w_.window > next_ || removes.size() + 1 >= max_batch_) break;
      removes.push_back(j);
    }
    const std::size_t n = std::min(max_batch_ - removes.size(), end - next_);
    one_->pause();
    for (std::size_t j : removes) send_remove(j);
    const std::size_t first = next_;
    for (std::size_t k = 0; k < n; ++k)
      send_submit(next_, phase, Clock::now());
    one_->resume();
    wait_idle();
    if (!tracing_) return;
    // The order the service applies a batch: control class (removes)
    // first, then guaranteed-rate submits, then best-effort, FIFO within.
    Batch batch;
    for (std::size_t j : removes) batch.push_back({true, j});
    for (bool gr : {true, false})
      for (std::size_t i = first; i < next_; ++i)
        if ((apps_[i].qoe.cls == QoeClass::kGuaranteedRate) == gr)
          batch.push_back({false, i});
    schedule_.push_back(std::move(batch));
  }

  const Workload& w_;
  bool tracing_;
  Network net_;
  obs::DecisionLog decisions_;
  std::unique_ptr<workload::ArrivalGenerator> gen_;
  std::unique_ptr<service::PlacementService> svc_;
  service::SchedulerService* one_{nullptr};
  federation::FederatedService* fed_{nullptr};
  std::size_t max_batch_{16};

  Rng schedule_rng_;  ///< order of the paced-phase gaps
  std::vector<Application> apps_;
  std::vector<Arrival> arr_;
  std::set<std::size_t> live_;  ///< answered, admitted, not yet departed
  std::size_t next_{0};
  std::size_t outstanding_{0};
  std::size_t attempted_{0};
  Failures failures_;
  Inbox inbox_;
  std::vector<Batch> schedule_;
  perfbench::SpanRecorder spans_;
};

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Options {
  std::string workload;
  std::uint64_t seed{kDefaultSeed};
  double seconds{45.0};
  bool trace{false};
  std::string out_dir{"."};
};

void print_env(const Options& o) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : -1;
  std::printf(
      "env: workload=%s seed=%llu holdout_seed=%llu nproc=%d "
      "hardware_concurrency=%u eval_threads=%u\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      static_cast<unsigned long long>(kHoldoutSeed), nproc,
      std::thread::hardware_concurrency(), WorkerPool::resolve_threads(0));
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += (first ? "" : ", ") + ("\"" + name + "\": {\"value\": ") +
           num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void report_failures(const char* what, Failures& f) {
  for (const auto& [kind, n] : f.by_kind)
    std::fprintf(stderr, "%s: %zu %s\n", what, n, kind.c_str());
}

/// Saturation blocks per round for a run of `seconds`: the paced blocks
/// take their submits at the workload's rate, and saturation the rest of
/// the time at the nominal throughput — a fixed amount of work, so a
/// faster build finishes sooner instead of doing more.
std::size_t saturation_blocks(const Workload& w, double seconds) {
  const double rounds = static_cast<double>(w.paced_blocks);
  const double paced_s = rounds * kBlock / w.paced_rate;
  const double blocks =
      std::max(0.0, seconds - paced_s) * w.nominal_tput / kBlock;
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(blocks / rounds - 0.25)));
}

/// Times set-ups, each after destroying the previous session, until
/// `count` of them cover `seconds`; appends each to `setups` and returns
/// the last session.
std::unique_ptr<Session> time_setups(const Workload& w, std::uint64_t seed,
                                     std::size_t count, double seconds,
                                     std::vector<double>& setups) {
  std::unique_ptr<Session> s;
  double total = 0.0;
  for (std::size_t k = 0; k < count || total < seconds; ++k) {
    s.reset();
    const auto t0 = Clock::now();
    s = std::make_unique<Session>(w, seed, false);
    setups.push_back(s_between(t0, Clock::now()));
    total += setups.back();
  }
  return s;
}

/// --trace 0: set-ups, saturation, paced phase, correctness gate, set-ups.
int timed_run(const Workload& w, const Options& o) {
  // An untimed warm-up set-up (first-touch page faults, thread start-up),
  // then timed ones in two halves, before the phases and after them, so
  // that setup_s samples the same stretch of host time as they do.
  std::vector<double> setups;
  { Session warm_up(w, o.seed, false); }
  std::unique_ptr<Session> s =
      time_setups(w, o.seed, kHalfSetups, kHalfSetupSeconds, setups);
  const std::size_t before = setups.size();

  const Session::Measured run = s->measure(saturation_blocks(w, o.seconds));
  const PhaseStats& sat = run.sat;
  const perfbench::Lateness late = perfbench::lateness(run.due, run.sent);
  std::string why;
  const bool clean = s->check(&why);
  if (!clean) {
    s->failures().add("dirty_check");
    std::fprintf(stderr, "correctness check failed:\n%s\n", why.c_str());
  }
  report_failures(w.name.c_str(), s->failures());
  std::fprintf(stderr,
               "%s: saturation %zu submits in %.2fs; paced %zu submits, "
               "p95 %.3fms, lateness p95 %.3fms max %.3fms\n",
               w.name.c_str(), sat.answered, sat.seconds,
               run.latency_ms.size(), percentile(run.latency_ms, 0.95),
               late.p95_ms, late.max_ms);
  const bool enough =
      run.latency_ms.size() >= perfbench::min_samples_for(0.95, 10);
  if (!enough) s->failures().add("too_few_paced_samples");
  const std::size_t attempted = s->attempted();
  const std::size_t failed = s->failures().total();
  // Read before the second half of the set-ups, so that the peak is the
  // run's, not that of sessions built on top of its freed memory.
  const double rss_mb = peak_rss_mb();

  s.reset();
  time_setups(w, o.seed, kHalfSetups, kHalfSetupSeconds, setups);
  const std::vector<double> first(setups.begin(),
                                  setups.begin() +
                                      static_cast<std::ptrdiff_t>(before));
  const std::vector<double> second(
      setups.begin() + static_cast<std::ptrdiff_t>(before), setups.end());
  std::fprintf(stderr,
               "%s: set-up %.3fs (median of %zu; before %.3fs, after %.3fs, "
               "min %.3fs)\n",
               w.name.c_str(), median(setups), setups.size(), median(first),
               median(second), *std::min_element(setups.begin(), setups.end()));

  Metrics m;
  m.push_back({"setup_s", {median(setups), "s"}});
  m.push_back({"admit_tput", {ratio(sat.answered, sat.seconds), "1/s"}});
  m.push_back({"admit_p50_ms", {percentile(run.latency_ms, 0.5), "ms"}});
  m.push_back({"admit_ratio",
               {ratio(sat.admitted + run.paced.admitted,
                      sat.answered + run.paced.answered),
                "ratio"}});
  m.push_back({"peak_rss_mb", {rss_mb, "MB"}});
  print_result(clean && failed == 0 && enough, attempted, failed, m);
  return 0;
}

void write_spans(const std::string& path,
                 const std::vector<perfbench::Span>& spans) {
  std::ofstream out(path);
  for (const perfbench::Span& s : spans)
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"start_ms\":" << num(s.start_ms)
        << ",\"dur_ms\":" << num(s.dur_ms) << "}\n";
}

/// Summed span durations (and self times) by name.
struct SpanSums {
  std::map<std::string, std::vector<double>> dur, self;
  double total(const std::string& name) const {
    double t = 0;
    if (auto it = dur.find(name); it != dur.end())
      for (double v : it->second) t += v;
    return t;
  }
  std::vector<double> of(const std::string& name) const {
    auto it = dur.find(name);
    return it == dur.end() ? std::vector<double>{} : it->second;
  }
};

SpanSums sum_spans(const perfbench::SpanRecorder& rec) {
  SpanSums out;
  const std::vector<double> self = rec.self_ms();
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    out.dur[rec.spans()[i].name].push_back(rec.spans()[i].dur_ms);
    out.self[rec.spans()[i].name].push_back(self[i]);
  }
  return out;
}

/// Shards an arrival's pins touch under `plan`, ascending: the federation
/// router's classification.
std::vector<std::size_t> touched_shards(const federation::ShardPlan& plan,
                                        const Application& app) {
  std::vector<std::size_t> out;
  for (const auto& [ct, ncp] : app.pinned)
    out.push_back(plan.shard_of_ncp.at(static_cast<std::size_t>(ncp)));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// obs.trace_overhead: over kOverheadPairs pairs of fresh sessions, each
/// timing its first kOverheadBlocks saturation blocks, the median of
/// traced wall over untraced wall, minus 1.  An untraced warm-up session
/// goes first and the pairs alternate which side runs first, so that
/// neither side gains from warm-up, run order or drift in host speed.
double trace_overhead(const Workload& w, const Options& o,
                      std::size_t& attempted, std::size_t& failed) {
  std::string why;
  const auto wall = [&](bool traced) {
    Session a(w, o.seed, traced);
    const double seconds = a.first_round(kOverheadBlocks);
    if (!a.check(&why)) a.failures().add("dirty_check");
    report_failures("overhead pass", a.failures());
    attempted += a.attempted();
    failed += a.failures().total();
    return seconds;
  };
  wall(false);
  std::vector<double> ratios;
  for (std::size_t k = 0; k < kOverheadPairs; ++k) {
    const bool traced_first = k % 2 == 1;
    const double a = wall(traced_first);
    const double b = wall(!traced_first);
    ratios.push_back(traced_first ? ratio(a, b) : ratio(b, a));
  }
  return median(ratios) - 1.0;
}

/// --trace 1: a traced pass of the timed protocol (spans, registry
/// counters), the trace overhead, and a bare-Scheduler replay for
/// per-layer attribution.
int traced_run(const Workload& w, const Options& o) {
  bool correct = true;
  std::size_t attempted = 0, failed = 0;
  std::string why;

  const double overhead = trace_overhead(w, o, attempted, failed);
  const std::size_t sat_blocks = saturation_blocks(w, o.seconds);
  Session b(w, o.seed, true);
  const Session::Measured run = b.measure(sat_blocks);
  const perfbench::Lateness late = perfbench::lateness(run.due, run.sent);
  if (!b.check(&why)) {
    b.failures().add("dirty_check");
    std::fprintf(stderr, "correctness check failed:\n%s\n", why.c_str());
  }
  report_failures("traced pass", b.failures());
  attempted += b.attempted();
  failed += b.failures().total();

  Metrics m;
  const auto put = [&](const std::string& name, double v, const char* unit) {
    m.push_back({name, {v, unit}});
  };

  // --- service: reply timelines of the paced phase, batch fill ---
  std::vector<double> queue, apply, solve;
  for (std::size_t i : run.index) {
    const service::RequestTimeline& t = b.arrivals()[i].timeline;
    queue.push_back(t.queue_us / 1000.0);
    apply.push_back(t.apply_us / 1000.0);
    solve.push_back(t.solve_us / 1000.0);
  }
  put("service.queue_ms.p50", percentile(queue, 0.5), "ms");
  put("service.queue_ms.p95", percentile(queue, 0.95), "ms");
  put("service.apply_ms.p50", percentile(apply, 0.5), "ms");
  put("service.solve_ms.p50", percentile(solve, 0.5), "ms");
  // Too noisy across seeds to bound (README.md), so reported here.
  put("admit_p95_ms", percentile(run.latency_ms, 0.95), "ms");
  put("read_p95_ms", percentile(run.read_ms, 0.95), "ms");
  put("service.batch_fill",
      ratio(run.sat_requests,
            run.sat_batches *
                static_cast<double>(service::ServiceOptions{}.max_batch)),
      "ratio");

  // --- counters of the installed registry over the whole traced pass ---
  const obs::MetricsSnapshot reg = b.svc().registry().snapshot();
  const double submits = static_cast<double>(reg.counter_or("scheduler.submits"));
  const auto per_submit = [&](const char* counter) {
    return ratio(static_cast<double>(reg.counter_or(counter)), submits);
  };
  put("assigner.dijkstras_per_admit", per_submit("assigner.widest_path_calls"),
      "count");
  put("assigner.gamma_evals_per_admit", per_submit("assigner.gamma_evals"),
      "count");
  put("assigner.bnb_prunes_per_admit", per_submit("assigner.bnb_prunes"),
      "count");
  const double hits = static_cast<double>(reg.counter_or("assigner.memo.hits"));
  put("assigner.memo_hit_ratio",
      ratio(hits, hits + static_cast<double>(
                             reg.counter_or("assigner.memo.misses"))),
      "ratio");
  const double pf_hits =
      static_cast<double>(reg.counter_or("scheduler.solver.warm_start_hits"));
  const double pf_fallbacks = static_cast<double>(
      reg.counter_or("scheduler.solver.warm_start_fallbacks"));
  const double pf_solves =
      pf_hits + pf_fallbacks +
      static_cast<double>(reg.counter_or("scheduler.solver.warm_start_misses"));
  double newton = 0.0;
  if (auto it = reg.histograms.find("scheduler.solver.newton_iters");
      it != reg.histograms.end())
    newton = it->second.sum;
  put("pf.newton_per_solve", ratio(newton, pf_solves), "count");
  put("pf.warm_hit_ratio", ratio(pf_hits, pf_solves), "ratio");
  put("pf.fallback_ratio", ratio(pf_fallbacks, pf_solves), "ratio");

  // --- federation: fed16 routes by its own plan.  pf96 uses the plan a
  // one-region-per-shard federation of the same site would, so there
  // "cross" means pins in more than one region. ---
  const federation::ShardPlan region_plan =
      b.fed() != nullptr ? federation::ShardPlan{}
                         : federation::plan_by_region(b.net(), w.regions);
  const federation::ShardPlan& plan =
      b.fed() != nullptr ? b.fed()->plan() : region_plan;
  const std::size_t n_apps = b.apps().size();
  std::vector<bool> cross(n_apps);
  std::vector<std::size_t> home(n_apps);
  std::vector<double> admitted_in(plan.shard_count());
  double sent = 0, sent_cross = 0, admitted_local = 0;
  for (std::size_t i = 0; i < n_apps; ++i) {
    const std::vector<std::size_t> t = touched_shards(plan, b.apps()[i]);
    cross[i] = t.size() > 1;
    home[i] = t.empty() ? 0 : t.front();
    if (b.arrivals()[i].phase == kUnsent) continue;
    ++sent;
    if (cross[i]) {
      ++sent_cross;
    } else if (b.arrivals()[i].admitted) {
      ++admitted_in[home[i]];
      ++admitted_local;
    }
  }
  std::vector<double> xs, ls;
  const double p95 = percentile(run.latency_ms, 0.95);
  double beyond = 0, beyond_cross = 0;
  for (std::size_t k = 0; k < run.index.size(); ++k) {
    const bool x = cross[run.index[k]];
    (x ? xs : ls).push_back(run.latency_ms[k]);
    if (run.latency_ms[k] <= p95) continue;
    ++beyond;
    if (x) ++beyond_cross;
  }
  put("federation.cross_share", ratio(sent_cross, sent), "ratio");
  put("federation.cross_ms.p50", percentile(xs, 0.5), "ms");
  put("federation.local_ms.p50", percentile(ls, 0.5), "ms");
  put("federation.tail_cross_share", ratio(beyond_cross, beyond), "ratio");
  put("federation.shard_skew",
      ratio(*std::max_element(admitted_in.begin(), admitted_in.end()),
            admitted_local / static_cast<double>(admitted_in.size())),
      "ratio");
  put("federation.abort_ratio",
      ratio(static_cast<double>(
                reg.counter_or("federation.cross.aborted_reserve")),
            static_cast<double>(reg.counter_or("federation.cross.submits"))),
      "ratio");

  put("obs.trace_overhead", overhead, "ratio");
  put("gen.lateness_p95_ms", late.p95_ms, "ms");
  put("gen.lateness_max_ms", late.max_ms, "ms");
  write_spans(o.out_dir + "/spans-" + w.name + "-" + std::to_string(o.seed) +
                  ".jsonl",
              b.spans());

  // --- bare-Scheduler replay.  pf96 replays the service's own
  // staged batches of the traced pass's timing-independent prefix
  // (prefill and first saturation round), and every decision must match
  // the service's.  fed16 replays the busiest shard's local arrivals of
  // the whole pass on the shard's sub-network, one submit per batch as
  // the shards mostly see them; a federated decision depends on
  // cross-shard timing, so there is no service decision to match. ---
  const Network* replay_net = &b.net();
  std::vector<Application> replay_apps = b.apps();
  std::vector<Batch> schedule(
      b.schedule().begin(),
      b.schedule().begin() + static_cast<std::ptrdiff_t>(run.prefix_batches));
  std::string scope = "service";
  if (b.fed() != nullptr) {
    std::vector<std::size_t> local_count(plan.shard_count());
    for (std::size_t i = 0; i < n_apps; ++i)
      if (b.arrivals()[i].phase != kUnsent && !cross[i]) ++local_count[home[i]];
    const std::size_t s = static_cast<std::size_t>(
        std::max_element(local_count.begin(), local_count.end()) -
        local_count.begin());
    std::vector<std::size_t> local;
    for (std::size_t i = 0; i < n_apps; ++i) {
      if (b.arrivals()[i].phase == kUnsent || cross[i] || home[i] != s)
        continue;
      local.push_back(i);
      std::map<CtId, NcpId> pins;
      for (const auto& [ct, ncp] : replay_apps[i].pinned)
        pins.emplace(ct, plan.local_ncp.at(static_cast<std::size_t>(ncp)));
      replay_apps[i].pinned = std::move(pins);
    }
    replay_net = &plan.shards[s].net;
    schedule = perfbench::shard_schedule(local, w.window, 1);
    scope = "shard" + std::to_string(s);
  }

  obs::MetricsRegistry replay_registry;
  obs::DecisionLog replay_log;
  obs::install({&replay_registry, nullptr, &replay_log});
  const perfbench::ReplayResult r =
      perfbench::replay(*replay_net, replay_apps, schedule);
  const double gr_evals =
      ratio(static_cast<double>(replay_registry.snapshot().counter_or(
                "scheduler.gr_subset_sum_evals")),
            static_cast<double>(r.gr_submits));
  // Serial-assigner replay: the same decisions, and the speedup the eval
  // fan-out buys on this workload.
  perfbench::ReplayOptions serial;
  serial.eval_threads = 1;
  const perfbench::ReplayResult r1 =
      perfbench::replay(*replay_net, replay_apps, schedule, serial);
  obs::uninstall();

  std::size_t mismatches = 0;
  if (b.fed() == nullptr) {
    mismatches += r.removes_not_found;
    for (const auto& [idx, d] : r.decisions)
      if (d.admitted != b.arrivals()[idx].admitted) ++mismatches;
  }
  for (const auto& [idx, d] : r1.decisions)
    if (d.admitted != r.decisions.at(idx).admitted ||
        d.hosts != r.decisions.at(idx).hosts)
      ++mismatches;
  if (mismatches > 0) {
    std::fprintf(stderr, "replay: %zu decision mismatches\n", mismatches);
    correct = false;
  }
  if (const std::size_t thrown = r.exceptions + r1.exceptions; thrown > 0) {
    std::fprintf(stderr, "replay: %zu submits threw\n", thrown);
    failed += thrown;
  }
  std::size_t admitted = 0, paths = 0;
  for (const auto& [idx, d] : r.decisions) {
    if (!d.admitted) continue;
    ++admitted;
    paths += d.hosts.size();
  }
  std::printf(
      "decision_fingerprint=%016llx replay=%s admitted=%zu/%zu batches=%zu "
      "mismatches=%zu\n",
      static_cast<unsigned long long>(
          perfbench::fingerprint(replay_apps, r.order, r.decisions)),
      scope.c_str(), admitted, r.decisions.size(), schedule.size(),
      mismatches);

  const SpanSums sums = sum_spans(r.spans);
  const double n_submits = static_cast<double>(r.decisions.size());
  const double submit_p50 = median(sums.of("submit"));
  const double solve_p50 = percentile(r.solve_ms, 0.5);
  put("scheduler.submit_ms.p50", submit_p50, "ms");
  put("scheduler.remove_ms.p50", median(sums.of("remove")), "ms");
  put("scheduler.end_batch_ms.p50", median(sums.of("end_batch")), "ms");
  put("scheduler.paths_per_admit",
      ratio(static_cast<double>(paths), static_cast<double>(admitted)),
      "count");
  put("scheduler.gr_subset_sum_evals_per_gr", gr_evals, "count");
  put("assigner.ms_per_admit", ratio(sums.total("assign"), n_submits), "ms");
  put("assigner.share", ratio(sums.total("assign"), sums.total("submit")),
      "ratio");
  put("assigner.calls_per_admit",
      ratio(static_cast<double>(sums.of("assign").size()), n_submits),
      "count");
  put("assigner.parallel_speedup",
      ratio(sum_spans(r1.spans).total("assign"), sums.total("assign")), "x");
  put("admit.other_ms.p50",
      median(sums.self.count("submit") ? sums.self.at("submit")
                                       : std::vector<double>{}),
      "ms");
  put("pf.solve_ms.p50", solve_p50, "ms");
  put("pf.solve_ms.p95", percentile(r.solve_ms, 0.95), "ms");
  put("pf.vars_per_solve",
      ratio(r.solve_vars, static_cast<double>(r.solve_ms.size())), "count");
  put("pf.share",
      ratio(sums.total("end_batch"), sums.total("submit") +
                                         sums.total("remove") +
                                         sums.total("end_batch")),
      "ratio");
  put("pf.lone_share", ratio(solve_p50, solve_p50 + submit_p50), "ratio");

  print_result(correct && failed == 0, attempted, failed, m);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: admbench --workload <pf96|fed16> [--seed N] "
               "[--seconds S] [--trace 0|1] [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (arg == "--workload") o.workload = v;
    else if (arg == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (arg == "--seconds") o.seconds = std::atof(v.c_str());
    else if (arg == "--trace") o.trace = v == "1";
    else if (arg == "--out-dir") o.out_dir = v;
    else return usage();
  }
  const Workload* w = nullptr;
  for (const Workload& c : workloads())
    if (c.name == o.workload) w = &c;
  if (w == nullptr || o.seconds <= 0) return usage();
  print_env(o);
  try {
    return o.trace ? traced_run(*w, o) : timed_run(*w, o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "admbench: %s\n", e.what());
    return 1;
  }
}
