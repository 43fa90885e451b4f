#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <utility>

#include "core/sparcle_assigner.hpp"

namespace perfbench {

using namespace sparcle;

namespace {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// ⌈q·n⌉ without the float error that turns 0.95·200 into 190.00000000000003.
std::size_t rank_of(std::size_t n, double q) {
  const double x = q * static_cast<double>(n);
  const double r = std::round(x);
  return static_cast<std::size_t>(std::abs(x - r) < 1e-9 ? r : std::ceil(x));
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = std::max<std::size_t>(1, rank_of(samples.size(), q));
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n - std::min(n, rank_of(n, q));
}

std::size_t min_samples_for(double q, std::size_t beyond) {
  std::size_t n = beyond;
  while (samples_beyond(n, q) < beyond) ++n;
  return n;
}

Lateness lateness(const std::vector<Clock::time_point>& due,
                  const std::vector<Clock::time_point>& sent) {
  if (due.size() != sent.size())
    throw std::invalid_argument("lateness: due/sent size mismatch");
  std::vector<double> late;
  late.reserve(due.size());
  for (std::size_t i = 0; i < due.size(); ++i)
    late.push_back(std::max(0.0, ms_between(due[i], sent[i])));
  Lateness out;
  out.p95_ms = percentile(late, 0.95);
  out.max_ms = late.empty() ? 0.0 : *std::max_element(late.begin(), late.end());
  return out;
}

void Fnv64::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

std::size_t SpanRecorder::begin(std::string name, std::uint64_t id) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : static_cast<long>(open_.back());
  s.id = id != 0 || open_.empty() ? id : spans_[open_.back()].id;
  s.start_ms = ms_between(origin_, Clock::now());
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::end() {
  const double now = ms_between(origin_, Clock::now());
  Span& s = spans_.at(open_.back());
  s.dur_ms = now - s.start_ms;
  open_.pop_back();
}

std::size_t SpanRecorder::add(std::string name, std::uint64_t id, long parent,
                              Clock::time_point start, Clock::time_point end) {
  Span s;
  s.name = std::move(name);
  s.id = id;
  s.parent = parent;
  s.start_ms = ms_between(origin_, start);
  s.dur_ms = ms_between(start, end);
  spans_.push_back(std::move(s));
  return spans_.size() - 1;
}

std::vector<double> SpanRecorder::self_ms() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].dur_ms;
  for (const Span& s : spans_)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.dur_ms;
  return self;
}

AssignmentResult TimingAssigner::assign(const AssignmentProblem& problem) const {
  spans_->begin("assign");
  try {
    AssignmentResult result = inner_->assign(problem);
    spans_->end();
    return result;
  } catch (...) {
    spans_->end();  // keep the span stack balanced for the caller
    throw;
  }
}

std::vector<Batch> shard_schedule(const std::vector<std::size_t>& local,
                                  std::size_t window, std::size_t per_batch) {
  if (per_batch == 0)
    throw std::invalid_argument("shard_schedule: per_batch must be positive");
  std::vector<Batch> out;
  std::deque<std::size_t> live;  // submitted, not yet departed
  for (std::size_t k = 0; k < local.size();) {
    Batch batch;
    while (!live.empty() && live.front() + window <= local[k]) {
      batch.push_back({true, live.front()});
      live.pop_front();
    }
    for (std::size_t n = 0; n < per_batch && k < local.size(); ++n, ++k) {
      batch.push_back({false, local[k]});
      live.push_back(local[k]);
    }
    out.push_back(std::move(batch));
  }
  return out;
}

std::uint64_t fingerprint(const std::vector<Application>& apps,
                          const std::vector<std::size_t>& order,
                          const std::map<std::size_t, Decision>& decisions) {
  Fnv64 h;
  for (std::size_t idx : order) {
    const Decision& d = decisions.at(idx);
    h.str(apps.at(idx).name);
    h.u64(d.admitted ? 1 : 0);
    h.u64(d.hosts.size());
    for (const auto& path : d.hosts) {
      h.u64(path.size());
      for (NcpId j : path) h.u64(static_cast<std::uint64_t>(j));
    }
  }
  return h.value();
}

ReplayResult replay(const Network& net, const std::vector<Application>& apps,
                    const std::vector<Batch>& schedule,
                    const ReplayOptions& options) {
  ReplayResult out;
  SchedulerOptions sched_options;
  sched_options.assigner_options.eval_threads = options.eval_threads;
  // The decorated scheduler goes through the public constructor the
  // default one delegates to, with the same assigner options.
  std::unique_ptr<Scheduler> owned =
      options.timing
          ? std::make_unique<Scheduler>(
                net,
                std::make_unique<TimingAssigner>(
                    std::make_unique<SparcleAssigner>(
                        sched_options.assigner_options),
                    &out.spans),
                sched_options)
          : std::make_unique<Scheduler>(net, sched_options);
  Scheduler& sched = *owned;

  for (const Batch& batch : schedule) {
    std::vector<std::size_t> admitted_here;
    sched.begin_batch();
    for (const Op& op : batch) {
      const Application& app = apps.at(op.arrival);
      if (op.remove) {
        out.spans.begin("remove", op.arrival + 1);
        const bool found = sched.remove(app.name);
        out.spans.end();
        if (!found) ++out.removes_not_found;
        continue;
      }
      if (app.qoe.cls == QoeClass::kGuaranteedRate) ++out.gr_submits;
      out.spans.begin("submit", op.arrival + 1);
      AdmissionResult r;
      try {
        r = sched.submit(app);
      } catch (const std::exception&) {
        r.admitted = false;
        ++out.exceptions;
      }
      out.spans.end();
      Decision d;
      d.admitted = r.admitted;
      if (r.admitted) {
        for (const PathInfo& path : sched.placed().back().paths) {
          std::vector<NcpId> hosts;
          for (CtId i = 0; i < static_cast<CtId>(path.placement.ct_count());
               ++i)
            hosts.push_back(path.placement.ct_host(i));
          d.hosts.push_back(std::move(hosts));
        }
        admitted_here.push_back(op.arrival);
      }
      out.decisions[op.arrival] = std::move(d);
      out.order.push_back(op.arrival);
    }
    double vars = 0.0;
    for (const PlacedApp& pa : sched.placed())
      if (pa.app.qoe.cls == QoeClass::kBestEffort)
        vars += static_cast<double>(pa.paths.size());
    const std::uint64_t solves_before = sched.pf_solver_stats().solves;
    const std::size_t span =
        out.spans.begin("end_batch", batch.empty() ? 0 : batch[0].arrival + 1);
    const Scheduler::BatchReport report = sched.end_batch();
    out.spans.end();
    if (sched.pf_solver_stats().solves > solves_before) {
      out.solve_ms.push_back(out.spans.spans()[span].dur_ms);
      out.solve_vars += vars;
    }
    for (const std::string& victim : report.evicted)
      for (std::size_t idx : admitted_here)
        if (apps[idx].name == victim) out.decisions[idx] = Decision{};
  }
  out.pf = sched.pf_solver_stats();
  for (const PlacedApp& pa : sched.placed())
    out.rates[pa.app.name] = pa.allocated_rate;
  return out;
}

}  // namespace perfbench
