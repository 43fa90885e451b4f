/// \file test_repair.cpp
/// Scheduler::repair(), the one failure-repair pass: only applications
/// whose paths cross a failed element (or are still degraded) are
/// touched, GR apps restore before BE apps, BE apps shed gracefully,
/// and no repaired path touches a failed element.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "core/availability.hpp"
#include "core/scheduler.hpp"
#include "obs/obs.hpp"
#include "sim/churn_injector.hpp"
#include "testutil.hpp"
#include "workload/arrivals.hpp"

namespace sparcle {
namespace {

Network make_two_relay_net(double r1 = 10.0, double r2 = 10.0,
                           double relay_fail_prob = 0.0) {
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("src", ResourceVector::scalar(1.0));
  net.add_ncp("r1", ResourceVector::scalar(r1), relay_fail_prob);
  net.add_ncp("r2", ResourceVector::scalar(r2), relay_fail_prob);
  net.add_ncp("dst", ResourceVector::scalar(1.0));
  net.add_link("s1", 0, 1, 1000.0);
  net.add_link("1d", 1, 3, 1000.0);
  net.add_link("s2", 0, 2, 1000.0);
  net.add_link("2d", 2, 3, 1000.0);
  return net;
}

Application make_app(const std::string& name, QoeSpec qoe) {
  Application app;
  auto g = std::make_shared<TaskGraph>(ResourceSchema::cpu_only());
  const CtId s = g->add_ct("source", ResourceVector::scalar(0));
  const CtId m = g->add_ct("mid", ResourceVector::scalar(5));
  const CtId t = g->add_ct("sink", ResourceVector::scalar(0));
  g->add_tt("sm", 1.0, s, m);
  g->add_tt("mt", 1.0, m, t);
  g->finalize();
  app.graph = g;
  app.name = name;
  app.qoe = qoe;
  app.pinned = {{0, 0}, {2, 3}};
  return app;
}

TEST(Repair, NoopWithoutFailures) {
  Scheduler sched(make_two_relay_net());
  ASSERT_TRUE(
      sched.submit(make_app("gr", QoeSpec::guaranteed_rate(1.0, 0.0)))
          .admitted);
  const auto report = sched.repair(ElementKey::ncp(1));
  EXPECT_TRUE(report.repaired.empty());
  EXPECT_TRUE(report.still_degraded.empty());
  EXPECT_EQ(report.paths_dropped, 0u);
  EXPECT_DOUBLE_EQ(sched.total_gr_rate(), 1.0);
}

TEST(Repair, RestoresGrGuaranteeOnTheOtherRelay) {
  Scheduler sched(make_two_relay_net());
  ASSERT_TRUE(
      sched.submit(make_app("gr", QoeSpec::guaranteed_rate(1.5, 0.0)))
          .admitted);
  const NcpId host = sched.placed()[0].paths[0].placement.ct_host(1);
  sched.mark_failed(ElementKey::ncp(host));
  ASSERT_EQ(sched.degraded_gr_apps().size(), 1u);

  const auto report = sched.repair(ElementKey::ncp(host));
  ASSERT_EQ(report.repaired.size(), 1u);
  EXPECT_EQ(report.repaired[0], "gr");
  EXPECT_TRUE(report.still_degraded.empty());
  EXPECT_EQ(report.apps_touched, 1u);
  EXPECT_EQ(report.paths_dropped, 1u);
  EXPECT_GE(report.paths_added, 1u);
  EXPECT_TRUE(sched.degraded_gr_apps().empty());
  const PlacedApp& pa = sched.placed()[0];
  ASSERT_EQ(pa.paths.size(), 1u);
  EXPECT_NE(pa.paths[0].placement.ct_host(1), host);
  EXPECT_NEAR(pa.allocated_rate, 1.5, 1e-9);
}

TEST(Repair, TouchesOnlyAffectedApps) {
  // gr1 on relay 1 (pinned mid), gr2 on relay 2: failing relay 1 must not
  // touch gr2.
  Scheduler sched(make_two_relay_net());
  Application gr1 = make_app("gr1", QoeSpec::guaranteed_rate(1.0, 0.0));
  gr1.pinned[1] = 1;
  Application gr2 = make_app("gr2", QoeSpec::guaranteed_rate(1.0, 0.0));
  gr2.pinned[1] = 2;
  ASSERT_TRUE(sched.submit(gr1).admitted);
  ASSERT_TRUE(sched.submit(gr2).admitted);

  sched.mark_failed(ElementKey::ncp(1));
  const auto report = sched.repair(ElementKey::ncp(1));
  // gr1's mid is pinned to the dead relay: unrepairable, but gr2 is never
  // part of the working set.
  EXPECT_EQ(report.apps_touched, 1u);
  ASSERT_EQ(report.still_degraded.size(), 1u);
  EXPECT_EQ(report.still_degraded[0], "gr1");
  EXPECT_NEAR(sched.placed()[1].allocated_rate, 1.0, 1e-9);
}

TEST(Repair, BeShedsGracefullyAndReprovisions) {
  Scheduler sched(make_two_relay_net());
  ASSERT_TRUE(
      sched.submit(make_app("be", QoeSpec::best_effort(1.0))).admitted);
  const NcpId host = sched.placed()[0].paths[0].placement.ct_host(1);
  sched.mark_failed(ElementKey::ncp(host));

  const auto report = sched.repair(ElementKey::ncp(host));
  ASSERT_EQ(report.repaired.size(), 1u);
  EXPECT_EQ(report.repaired[0], "be");
  // Never evicted: still placed, with a fresh path on the survivor.
  ASSERT_EQ(sched.placed().size(), 1u);
  const PlacedApp& pa = sched.placed()[0];
  ASSERT_EQ(pa.paths.size(), 1u);
  EXPECT_NE(pa.paths[0].placement.ct_host(1), host);
  EXPECT_NEAR(pa.allocated_rate, 2.0, 0.02);  // surviving relay 10/5
}

TEST(Repair, BeStaysPlacedWhenNoCapacityRemains) {
  // The BE app's mid CT is pinned to the failed relay: it sheds down to
  // zero paths but is not evicted, and a recovery re-provisions it.
  Scheduler sched(make_two_relay_net());
  Application be = make_app("be", QoeSpec::best_effort(1.0));
  be.pinned[1] = 1;
  ASSERT_TRUE(sched.submit(be).admitted);
  sched.mark_failed(ElementKey::ncp(1));
  const auto report = sched.repair(ElementKey::ncp(1));
  ASSERT_EQ(report.still_degraded.size(), 1u);
  EXPECT_EQ(report.still_degraded[0], "be");
  ASSERT_EQ(sched.placed().size(), 1u);
  EXPECT_TRUE(sched.placed()[0].paths.empty());
  EXPECT_DOUBLE_EQ(sched.placed()[0].allocated_rate, 0.0);

  // Recovery repairs it back into service.
  sched.mark_recovered(ElementKey::ncp(1));
  const auto after = sched.repair(ElementKey::ncp(1));
  ASSERT_EQ(after.repaired.size(), 1u);
  EXPECT_GT(sched.placed()[0].allocated_rate, 0.0);
}

TEST(Repair, ReportsUnrepairableGuarantees) {
  // Second relay too small to carry the guarantee.
  Scheduler sched(make_two_relay_net(10.0, 2.0));
  ASSERT_TRUE(
      sched.submit(make_app("gr", QoeSpec::guaranteed_rate(1.5, 0.0)))
          .admitted);
  ASSERT_EQ(sched.placed()[0].paths[0].placement.ct_host(1), 1);
  sched.mark_failed(ElementKey::ncp(1));
  const auto report = sched.repair(ElementKey::ncp(1));
  EXPECT_EQ(report.still_degraded, std::vector<std::string>{"gr"});
  EXPECT_TRUE(report.repaired.empty());
  EXPECT_EQ(sched.degraded_gr_apps(), std::vector<std::string>{"gr"});
}

TEST(Repair, LogRowOfAnAppThatKeptAlivePathsIsNotRestored) {
  // Relays fail 10% of the time, so a 0.95 availability target takes a
  // path over each.  Losing one relay leaves one alive path at 0.90:
  // repair() sheds the dead one and, with the other relay down, finds
  // nothing that raises the availability, so the app stays degraded and
  // its log row must say so, not `restored`.
  obs::DecisionLog log;
  obs::Observability sinks;
  sinks.decisions = &log;
  const obs::ScopedInstall installed(sinks);

  Scheduler sched(make_two_relay_net(10.0, 10.0, 0.1));
  ASSERT_TRUE(
      sched.submit(make_app("be", QoeSpec::best_effort(1.0, 0.95)))
          .admitted);
  ASSERT_EQ(sched.placed()[0].paths.size(), 2u);
  sched.mark_failed(ElementKey::ncp(1));
  const auto report = sched.repair(ElementKey::ncp(1));
  EXPECT_EQ(report.paths_dropped, 1u);
  EXPECT_EQ(report.paths_added, 0u);
  EXPECT_TRUE(report.repaired.empty());
  EXPECT_EQ(report.still_degraded, std::vector<std::string>{"be"});
  EXPECT_EQ(sched.placed()[0].paths.size(), 1u);

  std::vector<std::string> rows;
  for (const obs::Decision& d : log.snapshot())
    if (d.kind == obs::DecisionKind::kRepair) rows.push_back(d.reason);
  EXPECT_EQ(rows, std::vector<std::string>{
                      "repair after ncp:r1: still degraded"});
}

TEST(Repair, BeRegainsThePathsItsAvailabilityTargetNeeds) {
  // The same two-path app (availability 0.95 over relays failing 10%):
  // down to one path (0.90) while relay 1 is failed, and back to two
  // paths over both relays, meeting its target, once it recovers.
  Scheduler sched(make_two_relay_net(10.0, 10.0, 0.1));
  ASSERT_TRUE(
      sched.submit(make_app("be", QoeSpec::best_effort(1.0, 0.95)))
          .admitted);
  ASSERT_EQ(sched.placed()[0].paths.size(), 2u);
  sched.mark_failed(ElementKey::ncp(1));
  const auto down = sched.repair(ElementKey::ncp(1));
  EXPECT_EQ(down.still_degraded, std::vector<std::string>{"be"});
  ASSERT_EQ(sched.placed()[0].paths.size(), 1u);
  EXPECT_NEAR(sched.placed()[0].allocated_rate, 2.0, 0.02);

  sched.mark_recovered(ElementKey::ncp(1));
  const auto up = sched.repair(ElementKey::ncp(1));
  EXPECT_EQ(up.repaired, std::vector<std::string>{"be"});
  EXPECT_TRUE(up.still_degraded.empty());
  EXPECT_EQ(up.apps_touched, 1u);
  EXPECT_EQ(up.paths_added, 1u);
  const PlacedApp& pa = sched.placed()[0];
  ASSERT_EQ(pa.paths.size(), 2u);
  EXPECT_NE(pa.paths[0].placement.ct_host(1), pa.paths[1].placement.ct_host(1));
  std::vector<std::vector<ElementKey>> sets;
  for (const PathInfo& p : pa.paths) sets.push_back(p.elements);
  EXPECT_GE(availability_any(sched.network(), sets), 0.95);
  EXPECT_NEAR(pa.allocated_rate, 4.0, 0.04);  // 10 cpu / 5 per relay
  const check::CheckReport report = check::check_scheduler_state(sched);
  EXPECT_TRUE(report.ok()) << report.to_string();

  // At its target again, a further pass leaves it as it is.
  const auto again = sched.repair(ElementKey::ncp(1));
  EXPECT_EQ(again.paths_added, 0u);
  EXPECT_TRUE(again.repaired.empty());
  EXPECT_TRUE(again.still_degraded.empty());
}

TEST(Repair, ReleasesDeadReservations) {
  Scheduler sched(make_two_relay_net());
  ASSERT_TRUE(
      sched.submit(make_app("gr", QoeSpec::guaranteed_rate(1.5, 0.0)))
          .admitted);
  const NcpId host = sched.placed()[0].paths[0].placement.ct_host(1);
  sched.mark_failed(ElementKey::ncp(host));
  (void)sched.repair(ElementKey::ncp(host));
  sched.mark_recovered(ElementKey::ncp(host));
  EXPECT_DOUBLE_EQ(sched.gr_residual_capacities().ncp(host)[0], 10.0);
}

TEST(Repair, UsageIndexTracksPlacedPaths) {
  Scheduler sched(make_two_relay_net());
  ASSERT_TRUE(
      sched.submit(make_app("gr", QoeSpec::guaranteed_rate(1.0, 0.0)))
          .admitted);
  ASSERT_TRUE(
      sched.submit(make_app("be", QoeSpec::best_effort(1.0))).admitted);
  const ElementUsageIndex& idx = sched.element_usage();
  // Both apps pin source/sink, so both appear under the source NCP.
  ASSERT_EQ(idx.users(ElementKey::ncp(0)).size(), 2u);
  EXPECT_EQ(idx.users(ElementKey::ncp(0))[0].app, 0u);
  EXPECT_EQ(idx.users(ElementKey::ncp(0))[1].app, 1u);
  // Unknown elements resolve to the empty list, not a throw.
  EXPECT_TRUE(idx.users(ElementKey::link(99)).empty());

  // After a remove, indices shift and the index must follow.
  ASSERT_TRUE(sched.remove("gr"));
  const ElementUsageIndex& after = sched.element_usage();
  ASSERT_EQ(after.users(ElementKey::ncp(0)).size(), 1u);
  EXPECT_EQ(after.users(ElementKey::ncp(0))[0].app, 0u);
}

TEST(Repair, RepeatedCyclesStayFeasible) {
  Scheduler sched(make_two_relay_net());
  ASSERT_TRUE(
      sched.submit(make_app("gr", QoeSpec::guaranteed_rate(1.0, 0.0)))
          .admitted);
  ASSERT_TRUE(
      sched.submit(make_app("be", QoeSpec::best_effort(1.0))).admitted);
  for (NcpId relay : {1, 2, 1, 2}) {
    sched.mark_failed(ElementKey::ncp(relay));
    (void)sched.repair(ElementKey::ncp(relay));
    sched.mark_recovered(ElementKey::ncp(relay));
    (void)sched.repair(ElementKey::ncp(relay));
    LoadMap total = LoadMap::zeros(sched.network());
    for (const PlacedApp& pa : sched.placed())
      for (std::size_t k = 0; k < pa.paths.size(); ++k)
        total.add_scaled(pa.paths[k].load, pa.path_rates[k]);
    for (NcpId j = 0; j < 4; ++j)
      ASSERT_LE(total.ncp_load(j)[0],
                sched.network().ncp(j).capacity[0] + 1e-6);
    ASSERT_GE(sched.total_gr_rate() + 1e-9, 1.0);
  }
}

// What replay_churn() saw: every repair's report, the placed paths that
// touched a failed element right after each repair, and the end state.
struct ChurnReplay {
  std::vector<Scheduler::RepairReport> reports;
  std::vector<std::size_t> dead_paths_after_repair;
  std::vector<PlacedApp> end_state;
};

// Replays one steady arrival stream (sessions depart after their
// lifetime) merged with a burst-churn trace against a fresh scheduler on
// a soak site, all drawn from `seed`.  `batched` wraps each call in its
// own begin_batch()/end_batch(), the way SchedulerService::apply drives
// a federation shard (mark_failed and repair in separate batches).
ChurnReplay replay_churn(std::uint64_t seed, bool batched) {
  constexpr double kNever = std::numeric_limits<double>::infinity();
  Rng rng(seed);
  const Network net = workload::soak_site(4, 6, rng);
  Scheduler sched(net);
  const auto call = [&](const auto& fn) {
    if (batched) sched.begin_batch();
    fn();
    if (batched) sched.end_batch();
  };

  workload::ArrivalSpec spec;
  spec.arrivals = 60;
  spec.horizon = 2000.0;
  spec.gr_fraction = 0.3;
  workload::ArrivalGenerator gen(net, spec, seed);
  sim::BurstChurnConfig burst;
  burst.burst_rate = 1.0 / 50.0;
  burst.spread_prob = 0.7;
  burst.model.default_mttr = 40.0;
  const sim::ChurnTrace trace =
      sim::generate_burst_churn(net, burst, spec.horizon, seed);

  ChurnReplay out;
  std::multimap<double, std::string> departures;
  workload::Arrival arrival;
  bool have_arrival = gen.next(arrival);
  std::size_t at = 0;
  while (have_arrival || at < trace.events.size()) {
    const double t_arrival = have_arrival ? arrival.time : kNever;
    const double t_churn =
        at < trace.events.size() ? trace.events[at].time : kNever;
    if (!departures.empty() &&
        departures.begin()->first <= std::min(t_arrival, t_churn)) {
      const std::string name = departures.begin()->second;
      departures.erase(departures.begin());
      call([&] { sched.remove(name); });
    } else if (t_churn <= t_arrival) {
      const sim::ChurnEvent& ev = trace.events[at++];
      call([&] {
        if (ev.fail)
          sched.mark_failed(ev.element);
        else
          sched.mark_recovered(ev.element);
      });
      call([&] { out.reports.push_back(sched.repair(ev.element)); });
      std::size_t dead = 0;
      for (const PlacedApp& pa : sched.placed())
        for (const PathInfo& path : pa.paths)
          dead += std::ranges::any_of(path.elements, [&](ElementKey e) {
            return sched.failed_elements().contains(e);
          });
      out.dead_paths_after_repair.push_back(dead);
    } else {
      bool admitted = false;
      call([&] { admitted = sched.submit(arrival.app).admitted; });
      if (admitted)
        departures.emplace(arrival.time + arrival.lifetime, arrival.app.name);
      have_arrival = gen.next(arrival);
    }
  }
  out.end_state = sched.placed();
  return out;
}

// After every repair() no placed path touches a failed element: dead
// paths are shed and replacements are provisioned around every failed
// element.  Nothing else would stop a repaired path from transiting a
// failed NCP, since routing reads only link widths.
TEST(Repair, LeavesNoPathThroughAFailedElement) {
  const std::uint64_t seed = testutil::test_seed() + 1;
  const ChurnReplay replay = replay_churn(seed, /*batched=*/false);
  std::size_t dropped = 0;
  std::size_t added = 0;
  for (std::size_t i = 0; i < replay.reports.size(); ++i) {
    EXPECT_EQ(replay.dead_paths_after_repair[i], 0u)
        << "after repair #" << i << testutil::seed_message(seed);
    dropped += replay.reports[i].paths_dropped;
    added += replay.reports[i].paths_added;
  }
  // The stream is harsh enough that repairs shed and replace paths.
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(added, 0u);
}

// A federation shard runs each churn call in its own service batch.
// Every repair must then decide exactly what the same calls made
// directly decide, and leave the same placed state.
TEST(Repair, BatchedCallsMatchDirectCalls) {
  const std::uint64_t seed = testutil::test_seed() + 1;
  const ChurnReplay direct = replay_churn(seed, /*batched=*/false);
  const ChurnReplay batched = replay_churn(seed, /*batched=*/true);

  ASSERT_EQ(direct.reports.size(), batched.reports.size())
      << testutil::seed_message(seed);
  ASSERT_FALSE(direct.reports.empty());
  std::size_t added = 0;
  for (std::size_t i = 0; i < direct.reports.size(); ++i) {
    SCOPED_TRACE("repair #" + std::to_string(i) +
                 testutil::seed_message(seed));
    const Scheduler::RepairReport& d = direct.reports[i];
    const Scheduler::RepairReport& b = batched.reports[i];
    EXPECT_EQ(d.repaired, b.repaired);
    EXPECT_EQ(d.still_degraded, b.still_degraded);
    EXPECT_EQ(d.apps_touched, b.apps_touched);
    EXPECT_EQ(d.paths_dropped, b.paths_dropped);
    EXPECT_EQ(d.paths_added, b.paths_added);
    EXPECT_EQ(d.retries, b.retries);
    added += d.paths_added;
  }
  // The stream exercises re-provisioning, not only shedding.
  EXPECT_GT(added, 0u) << testutil::seed_message(seed);

  ASSERT_EQ(direct.end_state.size(), batched.end_state.size());
  for (std::size_t i = 0; i < direct.end_state.size(); ++i) {
    const PlacedApp& d = direct.end_state[i];
    const PlacedApp& b = batched.end_state[i];
    SCOPED_TRACE(d.app.name + testutil::seed_message(seed));
    EXPECT_EQ(d.app.name, b.app.name);
    EXPECT_EQ(d.allocated_rate, b.allocated_rate);
    EXPECT_EQ(d.path_rates, b.path_rates);
    ASSERT_EQ(d.paths.size(), b.paths.size());
    for (std::size_t k = 0; k < d.paths.size(); ++k) {
      EXPECT_EQ(d.paths[k].elements, b.paths[k].elements);
      const Placement& pd = d.paths[k].placement;
      for (CtId c = 0; c < static_cast<CtId>(pd.ct_count()); ++c)
        EXPECT_EQ(pd.ct_host(c), b.paths[k].placement.ct_host(c));
    }
  }
}

// ---------------------------------------------------------------------------
// A committed path touches no failed element.  A failed NCP's own capacity
// is zero, but routing reads only link widths and a zero-requirement CT
// fits a zero-capacity host, so neither admission nor repair may transit
// one or host on one.

TEST(FailedNcp, SubmitFindsNoPathThroughIt) {
  // src - hub - {w, dst}: every route from src to dst crosses the hub.
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("src", ResourceVector::scalar(1.0));
  net.add_ncp("hub", ResourceVector::scalar(10.0));
  net.add_ncp("w", ResourceVector::scalar(10.0));
  net.add_ncp("dst", ResourceVector::scalar(1.0));
  net.add_link("sh", 0, 1, 1000.0);
  net.add_link("hw", 1, 2, 1000.0);
  net.add_link("hd", 1, 3, 1000.0);
  Scheduler sched(net);
  sched.mark_failed(ElementKey::ncp(1));

  // Zero-bit TTs cross even a zero-width link, so the search alone
  // would still route them through the hub.
  auto free_tts = std::make_shared<TaskGraph>(ResourceSchema::cpu_only());
  const CtId s = free_tts->add_ct("source", ResourceVector::scalar(1));
  const CtId m = free_tts->add_ct("mid", ResourceVector::scalar(0));
  const CtId t = free_tts->add_ct("sink", ResourceVector::scalar(0));
  free_tts->add_tt("sm", 0.0, s, m);
  free_tts->add_tt("mt", 0.0, m, t);
  free_tts->finalize();
  for (const QoeSpec& qoe :
       {QoeSpec::best_effort(1.0), QoeSpec::guaranteed_rate(1.0, 0.0)}) {
    Application zero_bits = make_app("zero_bits", qoe);
    zero_bits.graph = free_tts;
    for (const Application& app : {make_app("app", qoe), zero_bits}) {
      const AdmissionResult r = sched.submit(app);
      EXPECT_FALSE(r.admitted) << app.name;
      EXPECT_EQ(r.reason, "no feasible task-assignment path") << app.name;
    }
  }
  EXPECT_TRUE(sched.placed().empty());
  EXPECT_TRUE(sched.degraded_gr_apps().empty());
}

TEST(FailedNcp, RepairLeavesAGrAppDegradedRatherThanRouteThroughIt) {
  // src - r1 - dst carries the app; the only other route, src - hub -
  // {w, dst}, crosses a hub that failed first.
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("src", ResourceVector::scalar(1.0));
  net.add_ncp("r1", ResourceVector::scalar(20.0));
  net.add_ncp("hub", ResourceVector::scalar(1.0));
  net.add_ncp("dst", ResourceVector::scalar(1.0));
  net.add_ncp("w", ResourceVector::scalar(10.0));
  net.add_link("s1", 0, 1, 1000.0);
  net.add_link("1d", 1, 3, 1000.0);
  net.add_link("sh", 0, 2, 1000.0);
  net.add_link("hw", 2, 4, 1000.0);
  net.add_link("hd", 2, 3, 1000.0);
  Scheduler sched(net);
  ASSERT_TRUE(
      sched.submit(make_app("gr", QoeSpec::guaranteed_rate(1.0, 0.0)))
          .admitted);
  ASSERT_EQ(sched.placed().front().paths.front().placement.ct_host(1), 1);

  sched.mark_failed(ElementKey::ncp(2));
  (void)sched.repair(ElementKey::ncp(2));
  sched.mark_failed(ElementKey::ncp(1));
  const auto report = sched.repair(ElementKey::ncp(1));

  EXPECT_EQ(report.still_degraded, std::vector<std::string>{"gr"});
  EXPECT_EQ(report.paths_added, 0u);
  const PlacedApp& pa = sched.placed().front();
  EXPECT_TRUE(pa.paths.empty());
  EXPECT_DOUBLE_EQ(pa.allocated_rate, 0.0);
  EXPECT_DOUBLE_EQ(sched.total_gr_rate(), 0.0);
  EXPECT_TRUE(check::check_scheduler_state(sched, {}).ok());
}

}  // namespace
}  // namespace sparcle
