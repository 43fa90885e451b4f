/// \file churn_replay.hpp
/// bench_churn part 1's replay loop, shared with its tests: an
/// ArrivalGenerator stream played through one Scheduler per assignment
/// algorithm, each admitted app departing after its arrival's lifetime.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "baselines/registry.hpp"
#include "core/scheduler.hpp"
#include "workload/arrivals.hpp"

namespace sparcle::bench {

/// One replay's outcome.  Time averages run from 0 to the last arrival.
struct ChurnStats {
  std::size_t arrivals{0};
  std::size_t admitted{0};
  double admitted_fraction{0.0};
  double avg_carried_gr_rate{0.0};  ///< time-average of the reserved GR rate
  double avg_concurrent_apps{0.0};  ///< time-average of the placed apps
  double mean_be_rate_at_admission{0.0};
};

/// Replays the `seed` stream of `spec` through a Scheduler driven by
/// `algorithm` (any make_assigner name): each arrival is submitted at its
/// time, and each admitted app departs after its arrival's lifetime.
/// Throws std::invalid_argument for a malformed spec or algorithm name.
inline ChurnStats replay_churn(const Network& net,
                               const workload::ArrivalSpec& spec,
                               const std::string& algorithm,
                               std::uint64_t seed) {
  Scheduler sched(net, make_assigner(algorithm, seed), SchedulerOptions{});
  workload::ArrivalGenerator gen(net, spec, seed);
  std::multimap<double, std::string> departures;  // time -> app name
  double now = 0.0, gr_integral = 0.0, conc_integral = 0.0, be_sum = 0.0;
  std::size_t be_admitted = 0;
  ChurnStats out;
  const auto advance_to = [&](double t) {
    gr_integral += sched.total_gr_rate() * (t - now);
    conc_integral += static_cast<double>(sched.placed().size()) * (t - now);
    now = t;
  };
  workload::Arrival a;
  while (gen.next(a)) {
    while (!departures.empty() && departures.begin()->first <= a.time) {
      advance_to(departures.begin()->first);
      sched.remove(departures.begin()->second);
      departures.erase(departures.begin());
    }
    advance_to(a.time);
    ++out.arrivals;
    const AdmissionResult r = sched.submit(a.app);
    if (!r.admitted) continue;
    ++out.admitted;
    departures.emplace(a.time + a.lifetime, a.app.name);
    if (a.app.qoe.cls == QoeClass::kBestEffort) {
      be_sum += r.rate;
      ++be_admitted;
    }
  }
  out.admitted_fraction = static_cast<double>(out.admitted) /
                          static_cast<double>(out.arrivals);
  out.avg_carried_gr_rate = gr_integral / now;
  out.avg_concurrent_apps = conc_integral / now;
  out.mean_be_rate_at_admission =
      be_admitted > 0 ? be_sum / static_cast<double>(be_admitted) : 0.0;
  return out;
}

}  // namespace sparcle::bench
