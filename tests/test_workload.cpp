#include <gtest/gtest.h>

#include <stdexcept>

#include "bench/churn_replay.hpp"
#include "workload/arrivals.hpp"
#include "workload/scenarios.hpp"
#include "workload/stats.hpp"

namespace sparcle {
namespace {

using namespace workload;

TEST(Stats, MeanOfSample) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 17.5);
}

TEST(Stats, PercentileValidation) {
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -1), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101), std::invalid_argument);
}

TEST(Stats, EmpiricalCdfIsMonotone) {
  const auto cdf = empirical_cdf({3.0, 1.0, 2.0});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].first, 1.0);
  EXPECT_NEAR(cdf[0].second, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(cdf[2].second, 1.0);
}

TEST(Stats, FractionAtLeast) {
  EXPECT_DOUBLE_EQ(fraction_at_least({1.0, 2.0, 3.0, 4.0}, 2.5), 0.5);
  EXPECT_DOUBLE_EQ(fraction_at_least({}, 1.0), 0.0);
}

TEST(Scenarios, LabelsAreHumanReadable) {
  EXPECT_EQ(to_string(BottleneckCase::kLink), "link-bottleneck");
  EXPECT_EQ(to_string(TopologyKind::kStar), "star");
  EXPECT_EQ(to_string(GraphKind::kDiamond), "diamond");
}

TEST(Scenarios, SeedsAreReproducible) {
  ScenarioSpec spec;
  Rng a(42), b(42);
  const Scenario s1 = make_scenario(spec, a);
  const Scenario s2 = make_scenario(spec, b);
  ASSERT_EQ(s1.net.ncp_count(), s2.net.ncp_count());
  for (NcpId j = 0; j < static_cast<NcpId>(s1.net.ncp_count()); ++j)
    EXPECT_EQ(s1.net.ncp(j).capacity, s2.net.ncp(j).capacity);
  for (LinkId l = 0; l < static_cast<LinkId>(s1.net.link_count()); ++l)
    EXPECT_DOUBLE_EQ(s1.net.link(l).bandwidth, s2.net.link(l).bandwidth);
}

TEST(Scenarios, BottleneckRegimesHoldByConstruction) {
  // In the link-bottleneck case every NCP has at least 10x more headroom
  // relative to total CT demand than any link has relative to TT demand.
  Rng rng(7);
  ScenarioSpec spec;
  spec.bottleneck = BottleneckCase::kLink;
  const Scenario sc = make_scenario(spec, rng);
  const double ct_total = sc.graph->total_ct_requirement()[0];
  const double tt_total = sc.graph->total_tt_bits();
  double min_ncp_ratio = 1e300, max_link_ratio = 0;
  for (NcpId j = 0; j < static_cast<NcpId>(sc.net.ncp_count()); ++j)
    min_ncp_ratio =
        std::min(min_ncp_ratio, sc.net.ncp(j).capacity[0] / ct_total);
  for (LinkId l = 0; l < static_cast<LinkId>(sc.net.link_count()); ++l)
    max_link_ratio =
        std::max(max_link_ratio, sc.net.link(l).bandwidth / tt_total);
  EXPECT_GT(min_ncp_ratio, max_link_ratio);
}

TEST(Scenarios, MemoryCaseUsesTwoResources) {
  Rng rng(7);
  ScenarioSpec spec;
  spec.bottleneck = BottleneckCase::kMemory;
  const Scenario sc = make_scenario(spec, rng);
  EXPECT_EQ(sc.net.schema().size(), 2u);
  EXPECT_EQ(sc.graph->schema().size(), 2u);
}

TEST(Scenarios, PinsCoverSourceAndSink) {
  Rng rng(9);
  ScenarioSpec spec;
  spec.graph = GraphKind::kLinear;
  const Scenario sc = make_scenario(spec, rng);
  EXPECT_TRUE(sc.pinned.contains(sc.graph->sources()[0]));
  EXPECT_TRUE(sc.pinned.contains(sc.graph->sinks()[0]));
}

TEST(Scenarios, FailProbPropagatesToElements) {
  Rng rng(9);
  ScenarioSpec spec;
  spec.fail_prob = 0.02;
  const Scenario sc = make_scenario(spec, rng);
  for (LinkId l = 0; l < static_cast<LinkId>(sc.net.link_count()); ++l)
    EXPECT_DOUBLE_EQ(sc.net.link(l).fail_prob, 0.02);
}

TEST(Scenarios, ProblemBorrowsScenario) {
  Rng rng(1);
  const Scenario sc = make_scenario(ScenarioSpec{}, rng);
  const AssignmentProblem p = sc.problem();
  EXPECT_EQ(p.net, &sc.net);
  EXPECT_EQ(p.graph, sc.graph.get());
  EXPECT_EQ(p.capacities.ncp_count(), sc.net.ncp_count());
}

TEST(Rng, IsDeterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  EXPECT_EQ(a.uniform_int(0, 100), b.uniform_int(0, 100));
}

TEST(SoakSite, StampsRegionLabelsOnEveryNcp) {
  Rng rng(11);
  const Network net = soak_site(3, 6, rng);
  std::set<std::string> labels;
  for (NcpId j = 0; j < static_cast<NcpId>(net.ncp_count()); ++j) {
    EXPECT_FALSE(net.ncp(j).region.empty()) << net.ncp(j).name;
    labels.insert(net.ncp(j).region);
  }
  // One label per star cluster, "r0".."r2".
  EXPECT_EQ(labels, (std::set<std::string>{"r0", "r1", "r2"}));
}

TEST(Arrivals, LocalityPinsEndpointsInsideOneRegion) {
  Rng rng(5);
  const Network net = soak_site(4, 8, rng);
  std::vector<std::string> region_of(net.ncp_count());
  for (NcpId j = 0; j < static_cast<NcpId>(net.ncp_count()); ++j)
    region_of[j] = net.ncp(j).region;

  ArrivalSpec spec;
  spec.arrivals = 200;
  spec.horizon = 2000.0;
  spec.locality = 1.0;  // every endpoint pinned inside the home region
  ArrivalGenerator gen(net, spec, 99);

  Arrival a;
  std::size_t seen = 0;
  while (gen.next(a)) {
    ++seen;
    ASSERT_FALSE(a.app.pinned.empty());
    const std::string home = region_of[a.app.pinned.begin()->second];
    for (const auto& [ct, ncp] : a.app.pinned)
      EXPECT_EQ(region_of[ncp], home) << a.app.name;
  }
  EXPECT_EQ(seen, 200u);
}

TEST(Arrivals, LocalityStreamsAreSeedDeterministic) {
  Rng rng(5);
  const Network net = soak_site(2, 6, rng);
  ArrivalSpec spec;
  spec.arrivals = 50;
  spec.horizon = 500.0;
  spec.locality = 0.9;
  ArrivalGenerator g1(net, spec, 7), g2(net, spec, 7);
  Arrival a, b;
  while (g1.next(a)) {
    ASSERT_TRUE(g2.next(b));
    EXPECT_DOUBLE_EQ(a.time, b.time);
    EXPECT_EQ(a.app.name, b.app.name);
    EXPECT_EQ(a.app.pinned, b.app.pinned);
  }
  EXPECT_FALSE(g2.next(b));
}

// ---------------------------------------------------------------------------
// Churn: bench_churn part 1's replay (bench/churn_replay.hpp), an arrival
// stream played through one Scheduler with departures.

using bench::ChurnStats;
using bench::replay_churn;

/// A small two-region soak site and a steady stream on it.
struct ChurnFixture {
  Network net;
  ArrivalSpec spec;
  ChurnFixture() {
    Rng rng(3);
    net = soak_site(2, 4, rng);
    spec.arrivals = 60;
    spec.horizon = 300.0;
    spec.mean_lifetime = 20.0;
    spec.gr_fraction = 0.5;
  }
};

TEST(Churn, IsDeterministicInSeed) {
  ChurnFixture f;
  const ChurnStats a = replay_churn(f.net, f.spec, "SPARCLE", 42);
  const ChurnStats b = replay_churn(f.net, f.spec, "SPARCLE", 42);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_DOUBLE_EQ(a.avg_carried_gr_rate, b.avg_carried_gr_rate);
  EXPECT_DOUBLE_EQ(a.avg_concurrent_apps, b.avg_concurrent_apps);
  EXPECT_DOUBLE_EQ(a.mean_be_rate_at_admission, b.mean_be_rate_at_admission);
}

TEST(Churn, CountsAreConsistent) {
  ChurnFixture f;
  const ChurnStats s = replay_churn(f.net, f.spec, "SPARCLE", 7);
  EXPECT_EQ(s.arrivals, 60u);
  EXPECT_LE(s.admitted, s.arrivals);
  EXPECT_DOUBLE_EQ(s.admitted_fraction, static_cast<double>(s.admitted) / 60.0);
  // Apps depart, so fewer are placed on average than were ever admitted.
  EXPECT_GT(s.avg_concurrent_apps, 0.0);
  EXPECT_LT(s.avg_concurrent_apps, static_cast<double>(s.admitted));
  EXPECT_GT(s.mean_be_rate_at_admission, 0.0);
}

TEST(Churn, LightLoadAdmitsAlmostEverything) {
  // Sessions end long before the next arrival.
  ChurnFixture f;
  f.spec.horizon = 6000.0;
  f.spec.mean_lifetime = 5.0;
  EXPECT_GE(replay_churn(f.net, f.spec, "SPARCLE", 11).admitted_fraction,
            0.95);
}

TEST(Churn, HeavyLoadRejectsSome) {
  // Guaranteed-rate sessions that never end fill the site.
  ChurnFixture f;
  f.spec.arrivals = 300;
  f.spec.horizon = 30.0;
  f.spec.mean_lifetime = 1e9;
  f.spec.gr_fraction = 1.0;
  const ChurnStats s = replay_churn(f.net, f.spec, "SPARCLE", 11);
  EXPECT_LT(s.admitted_fraction, 0.6);
  EXPECT_GT(s.avg_carried_gr_rate, 0.0);
}

TEST(Churn, WorksWithBaselineAssigners) {
  ChurnFixture f;
  const ChurnStats s = replay_churn(f.net, f.spec, "GS", 17);
  EXPECT_EQ(s.arrivals, 60u);
  EXPECT_GT(s.admitted, 0u);
}

TEST(Churn, RejectsBadConfig) {
  ChurnFixture f;
  ArrivalSpec timeless = f.spec;
  timeless.horizon = -1;
  EXPECT_THROW(replay_churn(f.net, timeless, "SPARCLE", 1),
               std::invalid_argument);
  ArrivalSpec none = f.spec;
  none.arrivals = 0;
  EXPECT_THROW(replay_churn(f.net, none, "SPARCLE", 1), std::invalid_argument);
  EXPECT_THROW(replay_churn(f.net, f.spec, "no-such-assigner", 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace sparcle

