/// \file failure_resilience.cpp
/// Multipath QoE under element failures: provision a Best-Effort app with
/// one vs two task-assignment paths on a network with unreliable relays,
/// compute the exact availability (inclusion–exclusion over the shared
/// elements), cross-check with Monte Carlo, and then *watch it happen* in
/// the discrete-event simulator with live failure injection.

#include <cstdio>

#include "core/availability.hpp"
#include "check/invariants.hpp"
#include "core/scheduler.hpp"
#include "sim/stream_simulator.hpp"
#include "workload/task_graphs.hpp"

using namespace sparcle;

namespace {

/// src - {relay1 | relay2} - dst, relays fail 10% of the time.
Network make_net() {
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("src", ResourceVector::scalar(1.0));
  net.add_ncp("relay1", ResourceVector::scalar(40.0), 0.10);
  net.add_ncp("relay2", ResourceVector::scalar(30.0), 0.10);
  net.add_ncp("dst", ResourceVector::scalar(1.0));
  net.add_link("s1", 0, 1, 500.0, 0.02);
  net.add_link("1d", 1, 3, 500.0, 0.02);
  net.add_link("s2", 0, 2, 500.0, 0.02);
  net.add_link("2d", 2, 3, 500.0, 0.02);
  return net;
}

Application make_app(double availability) {
  Application app;
  app.name = "stream";
  auto g = std::make_shared<TaskGraph>(ResourceSchema::cpu_only());
  const CtId s = g->add_ct("sensor", ResourceVector::scalar(0));
  const CtId f = g->add_ct("filter", ResourceVector::scalar(10));
  const CtId t = g->add_ct("consumer", ResourceVector::scalar(0));
  g->add_tt("raw", 20.0, s, f);
  g->add_tt("filtered", 2.0, f, t);
  g->finalize();
  app.graph = g;
  app.qoe = QoeSpec::best_effort(1.0, availability);
  app.pinned = {{s, 0}, {t, 3}};
  return app;
}

}  // namespace

int main() {
  // Self-validation: in debug builds every scheduler mutation re-checks
  // the full invariant set (no-op in release builds).
  const check::ScopedValidation validation;

  const Network net = make_net();

  std::printf(
      "network: two relays (10%% failure) between a sensor site and a "
      "consumer; links fail 2%%\n\n");

  for (double target : {0.0, 0.95}) {
    Scheduler sched(net);
    const AdmissionResult r = sched.submit(make_app(target));
    if (!r.admitted) {
      std::printf("target availability %.2f: rejected (%s)\n", target,
                  r.reason.c_str());
      continue;
    }
    const PlacedApp& pa = sched.placed().back();
    std::printf("target availability %.2f -> %zu path(s), rate %.3f:\n",
                target, pa.paths.size(), pa.allocated_rate);

    // Exact availability and a Monte-Carlo cross-check.
    std::vector<std::vector<ElementKey>> sets;
    for (const auto& pi : pa.paths) sets.push_back(pi.elements);
    const double exact = availability_any(net, sets);
    const double mc = availability_any_mc(net, sets, 200000, 7);
    std::printf("  P(>=1 path alive): exact %.4f, Monte-Carlo %.4f\n", exact,
                mc);

    // Live failure injection: elements toggle with the same stationary
    // unavailability (mean down / (mean up + mean down) = P_f).
    sim::StreamSimulator sim(net, 11);
    for (std::size_t k = 0; k < pa.paths.size(); ++k)
      sim.add_stream(*pa.app.graph, pa.paths[k].placement,
                     std::max(0.05, 0.9 * pa.path_rates[k]));
    for (NcpId j = 0; j < static_cast<NcpId>(net.ncp_count()); ++j)
      if (net.ncp(j).fail_prob > 0)
        sim.add_failure(ElementKey::ncp(j),
                        50.0 * (1 - net.ncp(j).fail_prob),
                        50.0 * net.ncp(j).fail_prob);
    for (LinkId l = 0; l < static_cast<LinkId>(net.link_count()); ++l)
      if (net.link(l).fail_prob > 0)
        sim.add_failure(ElementKey::link(l),
                        50.0 * (1 - net.link(l).fail_prob),
                        50.0 * net.link(l).fail_prob);
    const auto rep = sim.run(4000.0, 400.0);
    double offered = 0, got = 0;
    for (std::size_t k = 0; k < rep.streams.size(); ++k) {
      offered += std::max(0.05, 0.9 * pa.path_rates[k]);
      got += rep.streams[k].throughput;
    }
    std::printf(
        "  simulated with live failures: offered %.3f, delivered %.3f "
        "units/s (%.0f%%)\n\n",
        offered, got, 100.0 * got / offered);
  }

  // Finally, the control-plane reaction: relay1 dies, the scheduler
  // notices the degradation and repair() re-provisions onto relay2.
  std::printf("control-plane repair (Scheduler::repair):\n");
  Scheduler sched(net);
  Application gr = make_app(0.0);
  gr.qoe = QoeSpec::guaranteed_rate(2.0, 0.0);
  const auto admitted = sched.submit(gr);
  std::printf("  admitted GR 2.0/s on %s\n",
              net.ncp(sched.placed()[0].paths[0].placement.ct_host(1))
                  .name.c_str());
  const NcpId dead = sched.placed()[0].paths[0].placement.ct_host(1);
  sched.mark_failed(ElementKey::ncp(dead));
  std::printf("  %s failed: degraded apps = %zu\n",
              net.ncp(dead).name.c_str(), sched.degraded_gr_apps().size());
  const auto report = sched.repair(ElementKey::ncp(dead));
  std::printf("  repair: repaired %zu, still degraded %zu; now on %s at "
              "%.3f units/s\n",
              report.repaired.size(), report.still_degraded.size(),
              net.ncp(sched.placed()[0].paths[0].placement.ct_host(1))
                  .name.c_str(),
              sched.placed()[0].allocated_rate);
  (void)admitted;
  return 0;
}
