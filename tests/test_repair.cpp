/// \file test_repair.cpp
/// Scheduler::repair() — the incremental, usage-index-driven counterpart
/// of rebalance(): only applications whose paths cross a failed element
/// are touched, GR apps restore before BE apps, BE apps shed gracefully,
/// and the degradation bound escalates to a full rebalance.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "core/scheduler.hpp"
#include "sim/churn_injector.hpp"
#include "testutil.hpp"
#include "workload/arrivals.hpp"

namespace sparcle {
namespace {

Network make_two_relay_net(double r1 = 10.0, double r2 = 10.0) {
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("src", ResourceVector::scalar(1.0));
  net.add_ncp("r1", ResourceVector::scalar(r1));
  net.add_ncp("r2", ResourceVector::scalar(r2));
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
  EXPECT_FALSE(report.fell_back);
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

TEST(Repair, FallbackBoundTripsAndCanBeDisabled) {
  // Second relay too small to restore the guarantee: the incremental pass
  // degrades the global rate, so a zero-tolerance policy must escalate.
  SchedulerOptions strict;
  strict.repair.max_rate_degradation = 0.0;
  {
    Scheduler sched(make_two_relay_net(10.0, 2.0), strict);
    ASSERT_TRUE(
        sched.submit(make_app("gr", QoeSpec::guaranteed_rate(1.5, 0.0)))
            .admitted);
    sched.mark_failed(ElementKey::ncp(1));
    const auto report = sched.repair(ElementKey::ncp(1));
    EXPECT_TRUE(report.fell_back);
    EXPECT_LT(report.global_rate_after + 1e-9, report.global_rate_before);
  }
  {
    // A bound of 1.0 floors at rate 0, which no repair falls below.
    SchedulerOptions no_fallback;
    no_fallback.repair.max_rate_degradation = 1.0;
    Scheduler sched(make_two_relay_net(10.0, 2.0), no_fallback);
    ASSERT_TRUE(
        sched.submit(make_app("gr", QoeSpec::guaranteed_rate(1.5, 0.0)))
            .admitted);
    sched.mark_failed(ElementKey::ncp(1));
    const auto report = sched.repair(ElementKey::ncp(1));
    EXPECT_FALSE(report.fell_back);
    ASSERT_EQ(report.still_degraded.size(), 1u);
  }
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

// Replays one steady arrival stream (sessions depart after their
// lifetime) merged with a burst-churn trace against a fresh scheduler,
// and returns every repair's report.  `batched` wraps each call in its
// own begin_batch()/end_batch(), the way SchedulerService::apply drives
// a federation shard (mark_failed and repair in separate batches).
std::vector<Scheduler::RepairReport> replay_churn(const Network& net,
                                                  std::uint64_t seed,
                                                  bool batched) {
  constexpr double kNever = std::numeric_limits<double>::infinity();
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

  std::vector<Scheduler::RepairReport> reports;
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
      call([&] { reports.push_back(sched.repair(ev.element)); });
    } else {
      bool admitted = false;
      call([&] { admitted = sched.submit(arrival.app).admitted; });
      if (admitted)
        departures.emplace(arrival.time + arrival.lifetime, arrival.app.name);
      have_arrival = gen.next(arrival);
    }
  }
  return reports;
}

// A batch that only marks a failure must not move repair()'s fallback
// baseline: only admissions, removals and the repair passes themselves
// do, inside a batch or not.  So every repair sees the same baseline
// and makes the same escalation decision whether the calls are made
// directly or each in its own batch.
TEST(Repair, BatchedCallsKeepTheDirectFallbackBaseline) {
  const std::uint64_t seed = testutil::test_seed() + 1;
  Rng rng(seed);
  const Network net = workload::soak_site(4, 6, rng);
  const std::vector<Scheduler::RepairReport> direct =
      replay_churn(net, seed, /*batched=*/false);
  const std::vector<Scheduler::RepairReport> batched =
      replay_churn(net, seed, /*batched=*/true);

  ASSERT_EQ(direct.size(), batched.size()) << testutil::seed_message(seed);
  ASSERT_FALSE(direct.empty());
  std::size_t fallbacks = 0;
  for (std::size_t i = 0; i < direct.size(); ++i) {
    SCOPED_TRACE("repair #" + std::to_string(i) +
                 testutil::seed_message(seed));
    EXPECT_EQ(direct[i].global_rate_before, batched[i].global_rate_before);
    EXPECT_EQ(direct[i].fell_back, batched[i].fell_back);
    if (direct[i].fell_back) ++fallbacks;
  }
  // The trace is harsh enough that the bound is exercised.
  EXPECT_GT(fallbacks, 0u) << testutil::seed_message(seed);
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
