/// \file harness_test.cpp
/// Tests of the benchmark's own arithmetic and of the timing decorator.

#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <set>
#include <vector>

#include "harness.hpp"
#include "workload/arrivals.hpp"
#include "workload/rng.hpp"

namespace perfbench {
namespace {

using namespace sparcle;
using std::chrono::milliseconds;

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 0.95), 95.0);
  EXPECT_EQ(percentile(v, 1.0), 100.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_EQ(percentile({}, 0.95), 0.0);
}

TEST(Percentile, TenSamplesBeyondP95NeedTwoHundred) {
  EXPECT_EQ(samples_beyond(200, 0.95), 10u);
  EXPECT_EQ(samples_beyond(199, 0.95), 9u);
  EXPECT_EQ(samples_beyond(220, 0.95), 11u);
  EXPECT_EQ(min_samples_for(0.95, 10), 200u);
  EXPECT_EQ(min_samples_for(0.5, 10), 20u);
  // The p95 of 200 samples is the 190th smallest: 10 lie beyond it.
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  const double p95 = percentile(v, 0.95);
  EXPECT_EQ(p95, 190.0);
  std::size_t beyond = 0;
  for (double x : v) beyond += x > p95;
  EXPECT_EQ(beyond, samples_beyond(v.size(), 0.95));
}

TEST(Lateness, SendMinusDue) {
  const Clock::time_point t0{};
  std::vector<Clock::time_point> due, sent;
  for (int i = 0; i < 20; ++i) {
    due.push_back(t0 + milliseconds(100 * i));
    sent.push_back(t0 + milliseconds(100 * i + i));  // i ms late
  }
  sent[3] = due[3] - milliseconds(5);  // early: counts as on time
  const Lateness late = lateness(due, sent);
  EXPECT_DOUBLE_EQ(late.max_ms, 19.0);
  EXPECT_DOUBLE_EQ(late.p95_ms, 18.0);  // 19th of 20 sorted lateness values
  EXPECT_THROW(lateness(due, {}), std::invalid_argument);
}

TEST(Fingerprint, CoversAdmissionAndHosts) {
  std::vector<Application> apps(2);
  apps[0].name = "a0";
  apps[1].name = "a1";
  std::map<std::size_t, Decision> d;
  d[0] = {true, {{1, 2, 3}}};
  d[1] = {false, {}};
  const std::uint64_t base = fingerprint(apps, {0, 1}, d);
  EXPECT_EQ(base, fingerprint(apps, {0, 1}, d));
  EXPECT_NE(base, fingerprint(apps, {1, 0}, d));
  auto moved = d;
  moved[0].hosts[0][1] = 4;
  EXPECT_NE(base, fingerprint(apps, {0, 1}, moved));
  auto rejected = d;
  rejected[0] = {false, {}};
  EXPECT_NE(base, fingerprint(apps, {0, 1}, rejected));
}

TEST(SpanRecorder, SelfTimeExcludesChildren) {
  const Clock::time_point t0 = Clock::now();
  SpanRecorder rec(t0);
  const std::size_t root =
      rec.add("submit", 7, -1, t0, t0 + milliseconds(10));
  rec.add("assign", 7, static_cast<long>(root), t0 + milliseconds(1),
          t0 + milliseconds(4));
  rec.add("assign", 7, static_cast<long>(root), t0 + milliseconds(5),
          t0 + milliseconds(9));
  const std::vector<double> self = rec.self_ms();
  EXPECT_NEAR(self[0], 3.0, 1e-9);
  EXPECT_NEAR(self[1], 3.0, 1e-9);
  rec.begin("outer", 9);
  rec.begin("inner");
  rec.end();
  rec.end();
  EXPECT_EQ(rec.spans()[4].id, 9u);  // inherited
  EXPECT_EQ(rec.spans()[4].parent, 3);
}

TEST(ShardSchedule, DueDeparturesLeadEachBatch) {
  const std::vector<Batch> want = {{{false, 0}, {false, 3}},
                                   {{true, 0}, {false, 5}, {false, 9}},
                                   {{true, 3}, {true, 5}, {false, 12}}};
  EXPECT_EQ(shard_schedule({0, 3, 5, 9, 12}, 4, 2), want);
  EXPECT_TRUE(shard_schedule({}, 4, 2).empty());
  EXPECT_THROW(shard_schedule({0}, 4, 0), std::invalid_argument);
}

TEST(TimingAssigner, DecisionsBitIdenticalToDefaultScheduler) {
  Rng rng(42);
  const Network net = workload::soak_site(2, 8, rng);
  workload::ArrivalSpec spec;
  spec.arrivals = 48;
  spec.horizon = 48.0;
  spec.gr_fraction = 0.2;
  spec.locality = 0.9;
  workload::ArrivalGenerator gen(net, spec, 20260808);
  std::vector<Application> apps;
  workload::Arrival a;
  while (gen.next(a)) apps.push_back(a.app);

  // Departures of rejected apps come back not found, identically under
  // both schedulers.
  std::vector<std::size_t> all(apps.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const std::vector<Batch> schedule = shard_schedule(all, 6, 8);
  ReplayOptions plain;
  plain.timing = false;
  const ReplayResult ref = replay(net, apps, schedule, plain);
  const ReplayResult timed = replay(net, apps, schedule);

  ASSERT_EQ(ref.decisions.size(), apps.size());
  std::size_t admitted = 0;
  for (const auto& [idx, d] : ref.decisions) {
    EXPECT_EQ(d.admitted, timed.decisions.at(idx).admitted) << idx;
    EXPECT_EQ(d.hosts, timed.decisions.at(idx).hosts) << idx;
    admitted += d.admitted;
  }
  EXPECT_GT(admitted, 0u);
  EXPECT_EQ(fingerprint(apps, ref.order, ref.decisions),
            fingerprint(apps, timed.order, timed.decisions));
  EXPECT_EQ(ref.rates, timed.rates);  // PF allocations bit for bit
  EXPECT_EQ(ref.pf.newton_iters, timed.pf.newton_iters);
  EXPECT_EQ(ref.removes_not_found, timed.removes_not_found);

  // Every assign span is nested directly under a submit span.
  std::size_t assigns = 0;
  for (const Span& s : timed.spans.spans()) {
    if (s.name != "assign") continue;
    ++assigns;
    ASSERT_GE(s.parent, 0);
    EXPECT_EQ(timed.spans.spans()[static_cast<std::size_t>(s.parent)].name,
              "submit");
  }
  EXPECT_GT(assigns, 0u);
  for (const Span& s : ref.spans.spans()) EXPECT_NE(s.name, "assign");
}

}  // namespace
}  // namespace perfbench
