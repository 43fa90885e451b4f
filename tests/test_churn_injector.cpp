/// \file test_churn_injector.cpp
/// The fault-injection engine: seeded trace generators (Poisson renewal
/// and correlated bursts), trace file round-trips, injector replay
/// semantics, and the determinism regression — replaying one trace against
/// two identical schedulers must produce bit-identical state.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "sim/churn_injector.hpp"
#include "testutil.hpp"

namespace sparcle {
namespace {

Network make_two_relay_net() {
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("src", ResourceVector::scalar(1.0));
  net.add_ncp("r1", ResourceVector::scalar(10.0));
  net.add_ncp("r2", ResourceVector::scalar(10.0));
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

/// Every observable bit of scheduler state, hex-formatted so two states
/// compare exactly (no decimal rounding).
std::string state_fingerprint(const Scheduler& sched) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const PlacedApp& pa : sched.placed()) {
    os << pa.app.name << " rate=" << pa.allocated_rate << "\n";
    for (std::size_t k = 0; k < pa.paths.size(); ++k) {
      os << "  path " << k << " rate=" << pa.path_rates[k] << " hosts=";
      const Placement& p = pa.paths[k].placement;
      for (CtId i = 0; i < static_cast<CtId>(p.ct_count()); ++i)
        os << p.ct_host(i) << ",";
      os << " elements=";
      for (const ElementKey& e : pa.paths[k].elements)
        os << (e.kind == ElementKey::Kind::kNcp ? 'n' : 'l') << e.index << ";";
      os << "\n";
    }
  }
  os << "failed=";
  for (const ElementKey& e : sched.failed_elements())
    os << (e.kind == ElementKey::Kind::kNcp ? 'n' : 'l') << e.index << ";";
  os << "\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Generators

TEST(ChurnGenerate, PoissonIsSortedAlternatingAndSeeded) {
  const Network net = make_two_relay_net();
  sim::ChurnModel model;
  model.default_mtbf = 5.0;
  model.default_mttr = 2.0;
  const sim::ChurnTrace trace =
      sim::generate_poisson_churn(net, model, 60.0, testutil::test_seed() + 1);
  ASSERT_FALSE(trace.events.empty());
  for (std::size_t i = 1; i < trace.events.size(); ++i)
    EXPECT_LE(trace.events[i - 1].time, trace.events[i].time);
  // Per element: strictly alternating fail/recover starting with a fail.
  for (NcpId j = 0; j < static_cast<NcpId>(net.ncp_count()); ++j) {
    bool expect_fail = true;
    for (const sim::ChurnEvent& ev : trace.events) {
      if (ev.element != ElementKey::ncp(j)) continue;
      EXPECT_EQ(ev.fail, expect_fail);
      expect_fail = !expect_fail;
      EXPECT_GE(ev.time, 0.0);
      EXPECT_LT(ev.time, 60.0);
    }
  }
  // Deterministic in the seed; different seeds give different traces.
  const sim::ChurnTrace again =
      sim::generate_poisson_churn(net, model, 60.0, testutil::test_seed() + 1);
  EXPECT_EQ(trace.events, again.events);
  const sim::ChurnTrace other =
      sim::generate_poisson_churn(net, model, 60.0, testutil::test_seed() + 2);
  EXPECT_NE(trace.events, other.events);
}

TEST(ChurnGenerate, PerElementOverridesShiftEventCounts) {
  const Network net = make_two_relay_net();
  sim::ChurnModel model;
  model.default_mtbf = 1e9;  // nothing fails by default...
  model.default_mttr = 1.0;
  model.mtbf_override[ElementKey::ncp(1)] = 2.0;  // ...except relay 1
  const sim::ChurnTrace trace =
      sim::generate_poisson_churn(net, model, 100.0, testutil::test_seed());
  ASSERT_FALSE(trace.events.empty());
  for (const sim::ChurnEvent& ev : trace.events)
    EXPECT_EQ(ev.element, ElementKey::ncp(1));
}

TEST(ChurnGenerate, BurstFailsNeighborhoods) {
  const Network net = make_two_relay_net();
  sim::BurstChurnConfig config;
  config.burst_rate = 0.2;
  config.spread_prob = 1.0;  // every neighbor joins
  const sim::ChurnTrace trace =
      sim::generate_burst_churn(net, config, 50.0, testutil::test_seed() + 3);
  ASSERT_FALSE(trace.events.empty());
  for (std::size_t i = 1; i < trace.events.size(); ++i)
    EXPECT_LE(trace.events[i - 1].time, trace.events[i].time);
  // With full spread, some link joins each burst alongside its epicenter.
  bool saw_link = false;
  for (const sim::ChurnEvent& ev : trace.events)
    saw_link |= ev.element.kind == ElementKey::Kind::kLink;
  EXPECT_TRUE(saw_link);
  const sim::ChurnTrace again =
      sim::generate_burst_churn(net, config, 50.0, testutil::test_seed() + 3);
  EXPECT_EQ(trace.events, again.events);
}

TEST(ChurnGenerate, RejectsNonPositiveMeans) {
  const Network net = make_two_relay_net();
  sim::ChurnModel model;
  model.default_mtbf = 0.0;
  EXPECT_THROW(sim::generate_poisson_churn(net, model, 10.0, 1),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Trace file IO

TEST(ChurnTraceIo, WriteParseRoundTrips) {
  const Network net = make_two_relay_net();
  sim::ChurnModel model;
  model.default_mtbf = 4.0;
  model.default_mttr = 2.0;
  const sim::ChurnTrace trace =
      sim::generate_poisson_churn(net, model, 30.0, testutil::test_seed() + 4);
  ASSERT_FALSE(trace.events.empty());
  const std::string text = sim::write_churn_trace(trace, net);
  const sim::ChurnTrace parsed = sim::parse_churn_trace_text(text, net);
  EXPECT_EQ(trace.events, parsed.events);  // exact, including times
}

TEST(ChurnTraceIo, ParseRejectsMalformedInput) {
  const Network net = make_two_relay_net();
  auto expect_line_error = [&](const std::string& text) {
    try {
      sim::parse_churn_trace_text(text, net);
      FAIL() << "expected parse error for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line"), std::string::npos)
          << e.what();
    }
  };
  expect_line_error("fail 1.0 ncp:src\n");             // missing header
  expect_line_error("churn v2\n");                     // bad version
  expect_line_error("churn v1\nflip 1.0 ncp:src\n");   // bad verb
  expect_line_error("churn v1\nfail 1.0 ncp:nope\n");  // unknown element
  expect_line_error("churn v1\nfail 1.0 src\n");       // missing kind
  expect_line_error("churn v1\nfail 2.0 ncp:src\nfail 1.0 ncp:dst\n");
}

TEST(ChurnTraceIo, ParseAcceptsCommentsAndBlanks) {
  const Network net = make_two_relay_net();
  const sim::ChurnTrace parsed = sim::parse_churn_trace_text(
      "# a trace\n\nchurn v1\nfail 1.5 link:s1  # relay cut\n"
      "recover 2.5 link:s1\n",
      net);
  ASSERT_EQ(parsed.events.size(), 2u);
  EXPECT_EQ(parsed.events[0].element, ElementKey::link(0));
  EXPECT_TRUE(parsed.events[0].fail);
  EXPECT_DOUBLE_EQ(parsed.events[1].time, 2.5);
  EXPECT_FALSE(parsed.events[1].fail);
}

// ---------------------------------------------------------------------------
// Injector

TEST(ChurnInjector, AppliesEventsAndCountsOutcomes) {
  Scheduler sched(make_two_relay_net());
  ASSERT_TRUE(
      sched.submit(make_app("gr", QoeSpec::guaranteed_rate(1.0, 0.0)))
          .admitted);
  sim::ChurnTrace trace;
  trace.events = {
      {1.0, ElementKey::ncp(1), true},
      {1.5, ElementKey::ncp(1), true},  // redundant double-fail
      {2.0, ElementKey::ncp(1), false},
      {3.0, ElementKey::ncp(2), true},
      {4.0, ElementKey::ncp(2), false},
  };
  sim::ChurnInjector injector(sched, trace);
  EXPECT_DOUBLE_EQ(injector.next_time(), 1.0);
  EXPECT_EQ(injector.run_until(2.0), 3u);
  EXPECT_FALSE(injector.done());
  EXPECT_DOUBLE_EQ(injector.next_time(), 3.0);
  EXPECT_EQ(injector.run_all(), 2u);
  EXPECT_TRUE(injector.done());
  EXPECT_FALSE(injector.step());

  const sim::ChurnInjectorStats& stats = injector.stats();
  EXPECT_EQ(stats.failures, 2u);
  EXPECT_EQ(stats.recoveries, 2u);
  EXPECT_EQ(stats.redundant, 1u);
  // Each relay failure makes repair() move the one GR path to the other
  // relay; the recoveries leave it there.  Without a repair pass the path
  // would stay on the failed relay and every count here would read 0.
  EXPECT_EQ(stats.apps_touched, 2u);
  EXPECT_EQ(stats.paths_dropped, 2u);
  EXPECT_EQ(stats.paths_added, 2u);
  EXPECT_EQ(stats.retries, 0u);
  // All healed: the guarantee is carried again.
  EXPECT_TRUE(sched.failed_elements().empty());
  EXPECT_NEAR(sched.total_gr_rate(), 1.0, 1e-9);
}

TEST(ChurnInjector, IncrementalRecoversFromTotalOutage) {
  // Both relays down at once: the GR app loses every path, and repair()'s
  // degraded-app scan re-provisions it on recovery.
  Scheduler sched(make_two_relay_net());
  ASSERT_TRUE(
      sched.submit(make_app("gr", QoeSpec::guaranteed_rate(1.0, 0.0)))
          .admitted);
  sim::ChurnTrace trace;
  trace.events = {{1.0, ElementKey::ncp(1), true},
                  {2.0, ElementKey::ncp(2), true},
                  {3.0, ElementKey::ncp(1), false},
                  {4.0, ElementKey::ncp(2), false}};
  sim::ChurnInjector injector(sched, trace);
  EXPECT_EQ(injector.run_until(2.0), 2u);
  // The second failure's repair shed the last dead path and found no
  // replacement.
  EXPECT_TRUE(sched.placed()[0].paths.empty());
  EXPECT_EQ(sched.degraded_gr_apps(), std::vector<std::string>{"gr"});
  injector.run_all();
  EXPECT_TRUE(sched.failed_elements().empty());
  EXPECT_TRUE(sched.degraded_gr_apps().empty());
  EXPECT_NEAR(sched.total_gr_rate(), 1.0, 1e-9);
  // One path moved off the first relay, one re-provisioned on recovery.
  EXPECT_EQ(injector.stats().paths_dropped, 2u);
  EXPECT_EQ(injector.stats().paths_added, 2u);
}

// ---------------------------------------------------------------------------
// Determinism regression: identical trace, identical schedulers ->
// bit-identical end state.  Guards against unordered-container iteration
// or other nondeterminism sneaking into the repair path.

TEST(ChurnInjector, ReplayingTheSameTraceIsBitIdentical) {
  const Network net = make_two_relay_net();
  sim::ChurnModel model;
  model.default_mtbf = 4.0;
  model.default_mttr = 2.0;
  const sim::ChurnTrace trace =
      sim::generate_poisson_churn(net, model, 40.0, testutil::test_seed() + 5);
  ASSERT_FALSE(trace.events.empty());

  auto run = [&]() {
    Scheduler sched(net);
    EXPECT_TRUE(
        sched.submit(make_app("gr", QoeSpec::guaranteed_rate(1.0, 0.0)))
            .admitted);
    EXPECT_TRUE(
        sched.submit(make_app("be", QoeSpec::best_effort(2.0))).admitted);
    EXPECT_TRUE(
        sched.submit(make_app("be2", QoeSpec::best_effort(1.0))).admitted);
    sim::ChurnInjector injector(sched, trace);
    injector.run_all();
    // The trace must exercise repair(), not just mark and unmark elements.
    EXPECT_GT(injector.stats().paths_dropped, 0u);
    EXPECT_GT(injector.stats().paths_added, 0u);
    return state_fingerprint(sched);
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("gr"), std::string::npos);
}

}  // namespace
}  // namespace sparcle
