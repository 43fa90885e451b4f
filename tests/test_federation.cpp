#include "federation/federation.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/invariants.hpp"
#include "core/scheduler.hpp"
#include "federation/check.hpp"
#include "federation/shard_plan.hpp"
#include "obs/obs.hpp"
#include "policy/policy.hpp"
#include "service/client.hpp"
#include "service/event_server.hpp"
#include "workload/arrivals.hpp"
#include "workload/rng.hpp"
#include "workload/scenario_io.hpp"

namespace sparcle {
namespace {

using federation::ConservationReport;
using federation::FederatedService;
using federation::FederationOptions;
using federation::ShardPlan;
using service::ServiceResult;

// ---------------------------------------------------------------------------
// Fixtures

/// A two-region barbell: a0 - a1 in region "r0", b0 - b1 in region "r1",
/// joined by the single boundary link "ab".  a1/b0 are fat relays; b1 (the
/// usual cross-shard sink) carries `sink_cap` CPU so tests can fill it.
Network make_two_region_net(double relay_cap = 10.0, double sink_cap = 2.0) {
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("a0", ResourceVector::scalar(1.0), 0.0, "r0");
  net.add_ncp("a1", ResourceVector::scalar(relay_cap), 0.0, "r0");
  net.add_ncp("b0", ResourceVector::scalar(relay_cap), 0.0, "r1");
  net.add_ncp("b1", ResourceVector::scalar(sink_cap), 0.0, "r1");
  net.add_link("aa", 0, 1, 1000.0);
  net.add_link("ab", 1, 2, 1000.0);  // the boundary
  net.add_link("bb", 2, 3, 1000.0);
  return net;
}

/// Three regions around a0/a1: r0 = {a0, a1}, r1 = {b0, b1}, r2 =
/// {c0, c1}, with boundary links "ab" (a1-b0, `ab_bw`) and "ac" (a1-c0).
/// An app a0 -> b1 touches shards 0 and 1; a0 -> c1 touches 0 and 2.
Network make_three_region_net(double ab_bw = 1000.0) {
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("a0", ResourceVector::scalar(1.0), 0.0, "r0");
  net.add_ncp("a1", ResourceVector::scalar(10.0), 0.0, "r0");
  net.add_ncp("b0", ResourceVector::scalar(10.0), 0.0, "r1");
  net.add_ncp("b1", ResourceVector::scalar(2.0), 0.0, "r1");
  net.add_ncp("c0", ResourceVector::scalar(10.0), 0.0, "r2");
  net.add_ncp("c1", ResourceVector::scalar(2.0), 0.0, "r2");
  net.add_link("aa", 0, 1, 1000.0);
  net.add_link("ab", 1, 2, ab_bw);  // boundary r0-r1
  net.add_link("bb", 2, 3, 1000.0);
  net.add_link("ac", 1, 4, 1000.0);  // boundary r0-r2
  net.add_link("cc", 4, 5, 1000.0);
  return net;
}

/// Four regions in a line: r0 = {a0, a1}, r1 = {b0, b1}, r2 = {c0, c1},
/// r3 = {d0, d1}, with boundary links "ab" (a1-b0), "bc" (b1-c0) and "cd"
/// (c1-d0).  An app a0 -> b1 touches shards 0 and 1, one c0 -> d1 shards
/// 2 and 3: disjoint pairs, planned on different shards.
Network make_four_region_net() {
  Network net(ResourceSchema::cpu_only());
  for (const char r : {'a', 'b', 'c', 'd'}) {
    const std::string region = "r" + std::to_string(r - 'a');
    net.add_ncp(std::string(1, r) + "0", ResourceVector::scalar(10.0), 0.0,
                region);
    net.add_ncp(std::string(1, r) + "1", ResourceVector::scalar(2.0), 0.0,
                region);
  }
  net.add_link("aa", 0, 1, 1000.0);
  net.add_link("ab", 1, 2, 1000.0);  // boundary r0-r1
  net.add_link("bb", 2, 3, 1000.0);
  net.add_link("bc", 3, 4, 1000.0);  // boundary r1-r2
  net.add_link("cc", 4, 5, 1000.0);
  net.add_link("cd", 5, 6, 1000.0);  // boundary r2-r3
  net.add_link("dd", 6, 7, 1000.0);
  return net;
}

/// source (0 cpu) -> mid (`mid_cpu`) -> sink (`sink_cpu`), 1-bit TTs.
std::shared_ptr<const TaskGraph> make_pipeline_graph(double mid_cpu,
                                                     double sink_cpu = 0.0) {
  auto g = std::make_shared<TaskGraph>(ResourceSchema::cpu_only());
  const CtId s = g->add_ct("source", ResourceVector::scalar(0));
  const CtId m = g->add_ct("mid", ResourceVector::scalar(mid_cpu));
  const CtId t = g->add_ct("sink", ResourceVector::scalar(sink_cpu));
  g->add_tt("sm", 1.0, s, m);
  g->add_tt("mt", 1.0, m, t);
  g->finalize();
  return g;
}

Application make_app(const std::string& name, QoeSpec qoe, NcpId src,
                     NcpId dst, double mid_cpu = 4.0, double sink_cpu = 0.0) {
  Application app;
  app.name = name;
  app.graph = make_pipeline_graph(mid_cpu, sink_cpu);
  app.qoe = qoe;
  app.pinned = {{0, src}, {2, dst}};
  return app;
}

/// Asserts the federation conservation check is clean after draining.
void expect_conserved(FederatedService& fed) {
  fed.drain();
  const ConservationReport report = federation::check_federation(fed);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

/// Counter value from a ServiceStats metrics snapshot (0 when absent).
double counter(const service::ServiceStats& stats, const std::string& name) {
  const auto it = stats.metrics.find(name);
  return it == stats.metrics.end() ? 0.0 : it->second;
}

/// Records every reply by request label, in the order they fire, from
/// whichever thread fires them.
class Replies {
 public:
  service::PlacementService::Completion on(const std::string& label) {
    return [this, label](ServiceResult r) {
      std::lock_guard<std::mutex> lock(mu_);
      ++fired_[label];
      order_.push_back(label + ":" + service::to_string(r.status));
      last_[label] = std::move(r);
    };
  }
  /// Times `label`'s completion fired.
  int fired(const std::string& label) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = fired_.find(label);
    return it == fired_.end() ? 0 : it->second;
  }
  ServiceResult last(const std::string& label) const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_.at(label);
  }
  std::vector<std::string> order() const {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, int> fired_;
  std::map<std::string, ServiceResult> last_;
  std::vector<std::string> order_;
};

/// True once `shard`'s reservation table holds `name`.
bool holds(FederatedService& fed, std::size_t shard, const std::string& name) {
  bool held = false;
  fed.shard(shard).inspect([&](const Scheduler& sc) {
    held = sc.external_reservations().contains(name);
  });
  return held;
}

// ---------------------------------------------------------------------------
// ShardPlan

TEST(ShardPlan, RegionPlanSplitsTheBarbell) {
  const Network net = make_two_region_net();
  const ShardPlan plan = federation::plan_by_region(net, 2);

  ASSERT_EQ(plan.shard_count(), 2u);
  EXPECT_EQ(plan.shards[0].regions, std::vector<std::string>{"r0"});
  EXPECT_EQ(plan.shards[1].regions, std::vector<std::string>{"r1"});
  EXPECT_EQ(plan.shards[0].global_ncps, (std::vector<NcpId>{0, 1}));
  EXPECT_EQ(plan.shards[1].global_ncps, (std::vector<NcpId>{2, 3}));
  EXPECT_EQ(plan.shards[0].net.ncp(0).name, "a0");
  EXPECT_EQ(plan.shards[1].net.ncp(1).name, "b1");
  // Intra-region links land in their shard; "ab" is the lone boundary.
  EXPECT_EQ(plan.shards[0].global_links, (std::vector<LinkId>{0}));
  EXPECT_EQ(plan.shards[1].global_links, (std::vector<LinkId>{2}));
  EXPECT_EQ(plan.boundary_links, (std::vector<LinkId>{1}));
  EXPECT_TRUE(plan.is_boundary(1));
  EXPECT_FALSE(plan.is_boundary(0));
  EXPECT_EQ(plan.shard_of_ncp, (std::vector<std::size_t>{0, 0, 1, 1}));
  EXPECT_EQ(plan.local_ncp, (std::vector<NcpId>{0, 1, 0, 1}));
  // Capacities and region labels survive into the shard sub-networks.
  EXPECT_DOUBLE_EQ(plan.shards[1].net.ncp(0).capacity[0], 10.0);
  EXPECT_EQ(plan.shards[0].net.ncp(0).region, "r0");
}

TEST(ShardPlan, GraphCutBalancesAnUnlabeledPath) {
  Network net(ResourceSchema::cpu_only());
  for (int i = 0; i < 6; ++i)
    net.add_ncp("n" + std::to_string(i), ResourceVector::scalar(1.0));
  for (int i = 0; i < 5; ++i)
    net.add_link("l" + std::to_string(i), i, i + 1, 10.0);

  const ShardPlan plan = federation::plan_by_graph_cut(net, 2);
  ASSERT_EQ(plan.shard_count(), 2u);
  EXPECT_EQ(plan.shards[0].global_ncps.size(), 3u);
  EXPECT_EQ(plan.shards[1].global_ncps.size(), 3u);
  EXPECT_TRUE(plan.shards[0].regions.empty());
  EXPECT_FALSE(plan.boundary_links.empty());
  for (const LinkId l : plan.boundary_links) {
    const Link& link = net.link(l);
    EXPECT_NE(plan.shard_of_ncp[link.a], plan.shard_of_ncp[link.b]);
  }
  // Deterministic: the same input yields the identical assignment.
  const ShardPlan again = federation::plan_by_graph_cut(net, 2);
  EXPECT_EQ(plan.shard_of_ncp, again.shard_of_ncp);
}

TEST(ShardPlan, MakeShardPlanPrefersRegionLabels) {
  const ShardPlan labeled =
      federation::make_shard_plan(make_two_region_net(), 2);
  EXPECT_FALSE(labeled.shards[0].regions.empty());

  Network plain(ResourceSchema::cpu_only());
  plain.add_ncp("x", ResourceVector::scalar(1.0));
  plain.add_ncp("y", ResourceVector::scalar(1.0));
  plain.add_link("xy", 0, 1, 10.0);
  const ShardPlan cut = federation::make_shard_plan(plain, 2);
  EXPECT_TRUE(cut.shards[0].regions.empty());  // fell back to the graph cut
}

TEST(ShardPlan, SoakSiteRegionsMapOntoShards) {
  Rng rng(7);
  const Network net = workload::soak_site(4, 8, rng);
  const ShardPlan plan = federation::make_shard_plan(net, 4);

  ASSERT_EQ(plan.shard_count(), 4u);
  std::size_t covered = 0;
  for (const federation::Shard& shard : plan.shards) {
    EXPECT_EQ(shard.regions.size(), 1u);  // one soak region per shard
    covered += shard.global_ncps.size();
  }
  EXPECT_EQ(covered, net.ncp_count());
  // The backbone ring between hubs is exactly the boundary set.
  EXPECT_FALSE(plan.boundary_links.empty());
  for (const LinkId l : plan.boundary_links) {
    const Link& link = net.link(l);
    EXPECT_NE(plan.shard_of_ncp[link.a], plan.shard_of_ncp[link.b]);
  }
}

TEST(ShardPlan, BuilderErrors) {
  const Network net = make_two_region_net();
  EXPECT_THROW(federation::plan_by_region(net, 0), std::invalid_argument);
  EXPECT_THROW(federation::plan_by_region(net, 3), std::invalid_argument);
  EXPECT_THROW(federation::plan_by_graph_cut(net, 5), std::invalid_argument);

  Network plain(ResourceSchema::cpu_only());
  plain.add_ncp("x", ResourceVector::scalar(1.0));
  EXPECT_THROW(federation::plan_by_region(plain, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Scheduler external reservations (the per-shard half of the protocol)

TEST(ExternalReservation, ReserveReleaseLifecycle) {
  const Network net = make_two_region_net();
  Scheduler sc(net);

  LoadMap load = LoadMap::zeros(net);
  load.ncp_load(1)[0] = 2.0;
  load.link_load(0) = 5.0;
  const std::vector<ElementKey> elements = {ElementKey::ncp(1),
                                            ElementKey::link(0)};

  std::string why;
  ASSERT_TRUE(sc.reserve_external("x", load, elements, &why)) << why;
  EXPECT_DOUBLE_EQ(sc.gr_residual_capacities().ncp(1)[0], 8.0);
  EXPECT_DOUBLE_EQ(sc.gr_residual_capacities().link(0), 995.0);
  EXPECT_TRUE(check::check_scheduler_state(sc, {}).ok());

  // Names are unique; the failed reserve mutates nothing.
  EXPECT_FALSE(sc.reserve_external("x", load, elements, &why));
  EXPECT_DOUBLE_EQ(sc.gr_residual_capacities().ncp(1)[0], 8.0);

  ASSERT_TRUE(sc.release_external("x"));
  EXPECT_FALSE(sc.release_external("x"));  // unknown name: no-op
  EXPECT_DOUBLE_EQ(sc.gr_residual_capacities().ncp(1)[0], 10.0);
  EXPECT_DOUBLE_EQ(sc.gr_residual_capacities().link(0), 1000.0);
  EXPECT_TRUE(sc.external_reservations().empty());
  EXPECT_TRUE(check::check_scheduler_state(sc, {}).ok());
}

TEST(ExternalReservation, ReserveRespectsResidualAndFailures) {
  const Network net = make_two_region_net();
  Scheduler sc(net);

  LoadMap load = LoadMap::zeros(net);
  load.ncp_load(1)[0] = 6.0;
  const std::vector<ElementKey> elements = {ElementKey::ncp(1)};

  // Over capacity: 12 > 10 refuses without mutating.
  LoadMap big = LoadMap::zeros(net);
  big.ncp_load(1)[0] = 12.0;
  std::string why;
  EXPECT_FALSE(sc.reserve_external("big", big, elements, &why));
  EXPECT_NE(why.find("a1"), std::string::npos) << why;
  EXPECT_DOUBLE_EQ(sc.gr_residual_capacities().ncp(1)[0], 10.0);
  EXPECT_TRUE(sc.external_reservations().empty());

  // A failed element refuses the reserve outright.
  sc.mark_failed(ElementKey::ncp(1));
  EXPECT_FALSE(sc.reserve_external("dead", load, elements, &why));
  sc.mark_recovered(ElementKey::ncp(1));

  // A failure AFTER the hold was taken is churn: the hold stays, and the
  // release still restores everything.
  ASSERT_TRUE(sc.reserve_external("held", load, elements, &why)) << why;
  sc.mark_failed(ElementKey::ncp(1));
  EXPECT_TRUE(sc.external_reservations().contains("held"));
  EXPECT_TRUE(check::check_scheduler_state(sc, {}).ok());
  EXPECT_TRUE(sc.release_external("held"));
  sc.mark_recovered(ElementKey::ncp(1));
  EXPECT_DOUBLE_EQ(sc.gr_residual_capacities().ncp(1)[0], 10.0);
  EXPECT_TRUE(check::check_scheduler_state(sc, {}).ok());
}

// ---------------------------------------------------------------------------
// FederatedService: routing and the cross-shard happy path

TEST(Federation, LocalArrivalsRouteToTheirHomeShard) {
  FederationOptions opt;
  opt.shards = 2;
  FederatedService fed(make_two_region_net(), opt);
  service::LocalClient client(fed);

  // a0 -> a1 pins entirely inside region r0: no cross-shard machinery.
  const ServiceResult got =
      client.submit(make_app("local", QoeSpec::guaranteed_rate(1.0, 0.0), 0, 1));
  ASSERT_EQ(got.status, ServiceResult::Status::kAdmitted) << got.reason;
  EXPECT_DOUBLE_EQ(got.rate, 1.0);

  EXPECT_TRUE(fed.cross_apps().empty());
  const service::ServiceStats stats = fed.stats();
  EXPECT_EQ(stats.submits, 1u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(counter(stats, "federation.local.routed"), 1.0);
  EXPECT_EQ(counter(stats, "federation.cross.submits"), 0.0);

  // The shard's own admission pipeline placed it.
  bool found = false;
  fed.shard(0).inspect([&](const Scheduler& sc) {
    for (const PlacedApp& p : sc.placed())
      if (p.app.name == "local") found = true;
  });
  EXPECT_TRUE(found);
  const auto snap = fed.snapshot();
  EXPECT_NE(snap->find("local"), nullptr);
  expect_conserved(fed);

  EXPECT_EQ(client.remove("local").status, ServiceResult::Status::kRemoved);
  EXPECT_EQ(client.remove("local").status, ServiceResult::Status::kNotFound);
  expect_conserved(fed);
}

TEST(Federation, CrossShardAdmissionReservesOnEveryTouchedShard) {
  FederationOptions opt;
  opt.shards = 2;
  FederatedService fed(make_two_region_net(), opt);
  service::LocalClient client(fed);

  // a0 (shard 0) -> b1 (shard 1): the sink CT carries real CPU, so the
  // committed load must land on both shards plus the boundary link.
  const ServiceResult got = client.submit(
      make_app("cross", QoeSpec::guaranteed_rate(0.5, 0.0), 0, 3, 4.0, 1.0));
  ASSERT_EQ(got.status, ServiceResult::Status::kAdmitted) << got.reason;
  EXPECT_NEAR(got.rate, 0.5, 1e-9);
  EXPECT_GE(got.paths, 1u);
  // Cross results carry the wire's request-tracing contract (the
  // federation stamps it — no SchedulerService queue is involved).
  EXPECT_NE(got.timeline.trace_id, 0u);
  EXPECT_GT(got.timeline.apply_us, 0.0);
  EXPECT_GT(got.latency_us, 0.0);

  const auto cross = fed.cross_apps();
  ASSERT_EQ(cross.size(), 1u);
  const federation::CrossApp& ca = cross.at("cross");
  EXPECT_EQ(ca.shards, (std::vector<std::size_t>{0, 1}));
  EXPECT_NEAR(ca.total_rate, 0.5, 1e-9);
  EXPECT_NEAR(ca.load.ncp_load(3)[0], 0.5, 1e-9);  // sink: 0.5 x 1 cpu

  // Both shards hold a reservation named after the app.
  for (std::size_t s = 0; s < 2; ++s) {
    bool held = false;
    fed.shard(s).inspect([&](const Scheduler& sc) {
      held = sc.external_reservations().contains("cross");
    });
    EXPECT_TRUE(held) << "shard " << s;
  }
  // The planning residual charged the committed load.
  EXPECT_NEAR(fed.plan_residual().ncp(3)[0], 2.0 - 0.5, 1e-9);
  EXPECT_EQ(counter(fed.stats(), "federation.cross.admitted"), 1.0);
  expect_conserved(fed);

  // Removal releases every hold and refunds the planning residual.
  EXPECT_EQ(client.remove("cross").status, ServiceResult::Status::kRemoved);
  EXPECT_TRUE(fed.cross_apps().empty());
  EXPECT_NEAR(fed.plan_residual().ncp(3)[0], 2.0, 1e-9);
  for (std::size_t s = 0; s < 2; ++s) {
    bool empty = false;
    fed.shard(s).inspect([&](const Scheduler& sc) {
      empty = sc.external_reservations().empty();
    });
    EXPECT_TRUE(empty) << "shard " << s;
  }
  expect_conserved(fed);
}

TEST(Federation, CrossShardAdmissionTakesOneBatchPerTouchedShard) {
  FederationOptions opt;
  opt.shards = 2;
  FederatedService fed(make_two_region_net(), opt);
  service::LocalClient client(fed);
  fed.drain();

  std::vector<std::uint64_t> before;
  for (std::size_t s = 0; s < 2; ++s)
    before.push_back(fed.shard(s).stats().batches);
  ASSERT_EQ(client
                .submit(make_app("cx", QoeSpec::guaranteed_rate(0.5, 0.0), 0,
                                 3, 4.0, 1.0))
                .status,
            ServiceResult::Status::kAdmitted);
  fed.drain();
  // One reserve round: a single apply, hence a single batch, per touched
  // shard.  Exactly one pinned shard takes one batch more: the plan.  No
  // shard takes a third, so there is no commit round.
  std::size_t planners = 0;
  for (std::size_t s = 0; s < 2; ++s) {
    const std::uint64_t taken = fed.shard(s).stats().batches - before[s];
    EXPECT_TRUE(taken == 1 || taken == 2) << "shard " << s << ": " << taken;
    if (taken == 2) ++planners;
  }
  EXPECT_EQ(planners, 1u);
}

TEST(Federation, CrossShardBestEffortGetsAFixedFractionHold) {
  FederationOptions opt;
  opt.shards = 2;
  FederatedService fed(make_two_region_net(), opt);
  service::LocalClient client(fed);

  const ServiceResult got =
      client.submit(make_app("be_cross", QoeSpec::best_effort(1.0), 0, 3));
  ASSERT_EQ(got.status, ServiceResult::Status::kAdmitted) << got.reason;
  EXPECT_GT(got.rate, 0.0);
  // Each committed path holds a fixed fraction of its standalone
  // bottleneck (10 cpu / 4 per unit = 2.5), never the whole path.
  ASSERT_GE(got.paths, 1u);
  EXPECT_LE(got.rate,
            static_cast<double>(got.paths) * 0.25 * 10.0 / 4.0 + 1e-9);
  expect_conserved(fed);
}

/// DefaultPolicy that counts its candidate-ranking calls, from every
/// shard's scheduling thread, local admissions and cross plans alike.
class CountingPolicy : public policy::DefaultPolicy {
 public:
  std::size_t select_ct(const policy::SelectContext& ctx,
                        const std::vector<policy::CtCandidate>& candidates)
      const override {
    calls.fetch_add(1);
    return DefaultPolicy::select_ct(ctx, candidates);
  }
  mutable std::atomic<int> calls{0};
};

TEST(Federation, CrossShardPlanningRanksByTheInstalledPolicy) {
  auto counting = std::make_shared<CountingPolicy>();
  FederationOptions opt;
  opt.shards = 2;
  opt.scheduler.policy = counting;
  FederatedService fed(make_two_region_net(), opt);
  service::LocalClient client(fed);

  // a0 -> a1 stays on shard 0: that shard's scheduler ranks by the policy.
  ASSERT_EQ(
      client.submit(make_app("local", QoeSpec::best_effort(1.0), 0, 1)).status,
      ServiceResult::Status::kAdmitted);
  const int local_calls = counting->calls.load();
  EXPECT_GT(local_calls, 0);

  // a0 -> b1 spans both shards: a pinned shard plans it, by the same
  // policy.
  const ServiceResult cross = client.submit(
      make_app("cross", QoeSpec::guaranteed_rate(0.5, 0.0), 0, 3, 4.0, 1.0));
  ASSERT_EQ(cross.status, ServiceResult::Status::kAdmitted) << cross.reason;
  EXPECT_GT(counting->calls.load(), local_calls);
  expect_conserved(fed);
}

TEST(Federation, DuplicateNamesAreRejectedAcrossShards) {
  FederationOptions opt;
  opt.shards = 2;
  FederatedService fed(make_two_region_net(), opt);
  service::LocalClient client(fed);

  ASSERT_EQ(
      client.submit(make_app("dup", QoeSpec::best_effort(1.0), 0, 1)).status,
      ServiceResult::Status::kAdmitted);
  // Same name arriving as a cross-shard app must bounce at the router.
  const ServiceResult again =
      client.submit(make_app("dup", QoeSpec::best_effort(1.0), 0, 3));
  EXPECT_EQ(again.status, ServiceResult::Status::kRejected);
  expect_conserved(fed);
}

// ---------------------------------------------------------------------------
// Cross-shard edge cases — every abort must leave zero residue

TEST(Federation, ShardRefusalAtReserveAbortsWithoutResidue) {
  FederationOptions opt;
  opt.shards = 2;
  FederatedService fed(make_two_region_net(), opt);
  service::LocalClient client(fed);

  // Fill b1 with a shard-LOCAL GR app: invisible to the federation's
  // optimistic planning residual, so the cross plan passes and only the
  // authoritative shard reserve can say no.
  ASSERT_EQ(client
                .submit(make_app("filler", QoeSpec::guaranteed_rate(1.0, 0.0),
                                 2, 3, 1.0, 2.0))
                .status,
            ServiceResult::Status::kAdmitted);
  EXPECT_NEAR(fed.plan_residual().ncp(3)[0], 2.0, 1e-9);  // optimistic

  const ServiceResult got = client.submit(
      make_app("cx", QoeSpec::guaranteed_rate(0.5, 0.0), 0, 3, 4.0, 1.0));
  EXPECT_EQ(got.status, ServiceResult::Status::kRejected) << got.reason;
  EXPECT_EQ(
      counter(fed.stats(), "federation.cross.aborted_reserve"),
      1.0);
  EXPECT_TRUE(fed.cross_apps().empty());
  EXPECT_NEAR(fed.plan_residual().ncp(3)[0], 2.0, 1e-9);  // untouched
  for (std::size_t s = 0; s < 2; ++s) {
    bool empty = false;
    fed.shard(s).inspect([&](const Scheduler& sc) {
      empty = sc.external_reservations().empty();
    });
    EXPECT_TRUE(empty) << "leaked hold on shard " << s;
  }
  expect_conserved(fed);
}

TEST(Federation, TouchedNcpFailingAfterAdmissionKeepsTheHold) {
  FederationOptions opt;
  opt.shards = 2;
  FederatedService fed(make_two_region_net(), opt);
  service::LocalClient client(fed);

  ASSERT_EQ(client
                .submit(make_app("cx", QoeSpec::guaranteed_rate(0.5, 0.0), 0,
                                 3, 4.0, 1.0))
                .status,
            ServiceResult::Status::kAdmitted);
  // The sink NCP, internal to shard 1, fails right after the admission:
  // network dynamics, not a revisited admission.  Every hold stays.
  fed.mark_failed(ElementKey::ncp(3));
  fed.repair(ElementKey::ncp(3));
  EXPECT_EQ(fed.cross_apps().size(), 1u);
  EXPECT_NEAR(fed.plan_residual().ncp(3)[0], 0.0, 1e-9);  // dead
  for (std::size_t s = 0; s < 2; ++s) {
    bool held = false;
    fed.shard(s).inspect([&](const Scheduler& sc) {
      held = sc.external_reservations().contains("cx");
    });
    EXPECT_TRUE(held) << "shard " << s;
  }
  expect_conserved(fed);

  // Removing the app releases the hold on every shard.
  EXPECT_EQ(client.remove("cx").status, ServiceResult::Status::kRemoved);
  EXPECT_TRUE(fed.cross_apps().empty());
  for (std::size_t s = 0; s < 2; ++s) {
    bool empty = false;
    fed.shard(s).inspect([&](const Scheduler& sc) {
      empty = sc.external_reservations().empty();
    });
    EXPECT_TRUE(empty) << "leaked hold on shard " << s;
  }
  expect_conserved(fed);
  fed.mark_recovered(ElementKey::ncp(3));
  EXPECT_NEAR(fed.plan_residual().ncp(3)[0], 2.0, 1e-9);
  expect_conserved(fed);
}

TEST(Federation, BoundaryLinkChurnIsFederationOwned) {
  FederationOptions opt;
  opt.shards = 2;
  FederatedService fed(make_two_region_net(), opt);
  service::LocalClient client(fed);

  fed.mark_failed(ElementKey::link(1));  // "ab", owned by no shard
  EXPECT_TRUE(fed.failed_elements().contains(ElementKey::link(1)));
  EXPECT_NEAR(fed.plan_residual().link(1), 0.0, 1e-9);
  // No shard scheduler saw the failure (the link is in neither shard).
  for (std::size_t s = 0; s < 2; ++s) {
    bool clean = false;
    fed.shard(s).inspect([&](const Scheduler& sc) {
      clean = sc.failed_elements().empty();
    });
    EXPECT_TRUE(clean) << "shard " << s;
  }

  // Every cross-shard route needs "ab": admission must refuse.
  const ServiceResult down = client.submit(
      make_app("cx", QoeSpec::guaranteed_rate(0.5, 0.0), 0, 3, 4.0, 1.0));
  EXPECT_EQ(down.status, ServiceResult::Status::kRejected);
  expect_conserved(fed);

  fed.mark_recovered(ElementKey::link(1));
  fed.repair(ElementKey::link(1));  // no-op for boundary links
  EXPECT_EQ(client
                .submit(make_app("cx", QoeSpec::guaranteed_rate(0.5, 0.0), 0,
                                 3, 4.0, 1.0))
                .status,
            ServiceResult::Status::kAdmitted);
  expect_conserved(fed);
}

// ---------------------------------------------------------------------------
// The non-blocking router: rounds in flight complete by callback

TEST(FederationRouter, DoesNotWaitOnAPausedShard) {
  FederationOptions opt;
  opt.shards = 3;
  FederatedService fed(make_three_region_net(), opt);
  Replies replies;

  // Shard 1 holds the first app's reserve unanswered; the second, which
  // never touches shard 1, must still be planned and admitted.
  fed.shard(1).pause();
  fed.submit_async(
      make_app("to_b", QoeSpec::guaranteed_rate(0.5, 0.0), 0, 3, 4.0, 1.0),
      replies.on("to_b"));
  auto free = fed.submit(
      make_app("to_c", QoeSpec::guaranteed_rate(0.5, 0.0), 0, 5, 4.0, 1.0));
  ASSERT_EQ(free.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  const ServiceResult got = free.get();
  EXPECT_EQ(got.status, ServiceResult::Status::kAdmitted) << got.reason;
  EXPECT_EQ(replies.fired("to_b"), 0);  // its round is still pending
  const service::ServiceStats pending = fed.stats();
  EXPECT_EQ(counter(pending, "federation.cross.in_flight"), 1.0);
  // The pending app's hold is already charged to the planning residual.
  EXPECT_LT(fed.plan_residual().ncp(3)[0], 2.0);
  EXPECT_TRUE(fed.cross_apps().contains("to_c"));
  EXPECT_FALSE(fed.cross_apps().contains("to_b"));

  fed.shard(1).resume();
  fed.drain();
  ASSERT_EQ(replies.fired("to_b"), 1);
  EXPECT_EQ(replies.last("to_b").status, ServiceResult::Status::kAdmitted)
      << replies.last("to_b").reason;
  const service::ServiceStats after = fed.stats();
  EXPECT_EQ(counter(after, "federation.cross.in_flight"), 0.0);
  EXPECT_GT(counter(after, "federation.router.busy_us"), 0.0);
  const obs::Histogram* plan = fed.registry().find_histogram(
      "federation.cross.plan.us");
  const obs::Histogram* round = fed.registry().find_histogram(
      "federation.cross.round.us");
  ASSERT_NE(plan, nullptr);
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(plan->count(), 2u);
  EXPECT_EQ(round->count(), 2u);
  expect_conserved(fed);
}

/// DefaultPolicy whose candidate ranking waits, up to 10 s, until a
/// second thread has entered it: only plans that run side by side meet.
class RendezvousPolicy : public policy::DefaultPolicy {
 public:
  std::size_t select_ct(const policy::SelectContext& ctx,
                        const std::vector<policy::CtCandidate>& candidates)
      const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      threads_.insert(std::this_thread::get_id());
      cv_.notify_all();
      if (!gave_up_ &&
          !cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return threads_.size() >= 2; }))
        gave_up_ = true;  // later calls do not wait again
    }
    return DefaultPolicy::select_ct(ctx, candidates);
  }
  bool met() const {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_.size() >= 2 && !gave_up_;
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::set<std::thread::id> threads_;
  mutable bool gave_up_{false};
};

TEST(FederationRouter, CrossPlansRunConcurrently) {
  // Two cross-shard apps on disjoint shard pairs: each is planned on one
  // of its own pinned shards, so the two plans rank side by side.  Plans
  // made one at a time on one thread would each wait out the timeout.
  auto rendezvous = std::make_shared<RendezvousPolicy>();
  FederationOptions opt;
  opt.shards = 4;
  opt.scheduler.policy = rendezvous;
  FederatedService fed(make_four_region_net(), opt);
  auto first = fed.submit(
      make_app("ab", QoeSpec::guaranteed_rate(0.5, 0.0), 0, 3, 4.0, 1.0));
  auto second = fed.submit(
      make_app("cd", QoeSpec::guaranteed_rate(0.5, 0.0), 4, 7, 4.0, 1.0));
  const ServiceResult a = first.get();
  const ServiceResult c = second.get();
  EXPECT_EQ(a.status, ServiceResult::Status::kAdmitted) << a.reason;
  EXPECT_EQ(c.status, ServiceResult::Status::kAdmitted) << c.reason;
  EXPECT_TRUE(rendezvous->met());
  EXPECT_EQ(fed.cross_apps().size(), 2u);
  expect_conserved(fed);
}

TEST(FederationRouter, CrossPlansOnOneUnionSubnetRunConcurrently) {
  // Two apps a0 -> b1 share one cached union sub-network.  Paused shard
  // 0 holds the first plan, so the second goes to shard 1, builds the
  // sub-network and waits in its ranking; then the first plan runs on
  // shard 0 beside it.  Under ThreadSanitizer this also checks that a
  // cached sub-network is read-only: its adjacency was built before it
  // was published.
  auto rendezvous = std::make_shared<RendezvousPolicy>();
  FederationOptions opt;
  opt.shards = 2;
  opt.scheduler.policy = rendezvous;
  FederatedService fed(make_two_region_net(), opt);
  fed.shard(0).pause();
  auto first = fed.submit(
      make_app("first", QoeSpec::guaranteed_rate(0.5, 0.0), 0, 3, 4.0, 1.0));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fed.shard(0).queue_depth() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  ASSERT_EQ(fed.shard(0).queue_depth(), 1u);
  auto second = fed.submit(
      make_app("second", QoeSpec::guaranteed_rate(0.5, 0.0), 0, 3, 4.0, 1.0));
  // Resume only once the second plan started on shard 1; resumed
  // earlier, shard 0 could take it too, behind the first.
  const obs::Histogram* started = fed.registry().find_histogram(
      "federation.cross.plan_wait.us");
  ASSERT_NE(started, nullptr);
  while (started->count() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  ASSERT_EQ(started->count(), 1u);
  fed.shard(0).resume();
  const ServiceResult a = first.get();
  const ServiceResult b = second.get();
  EXPECT_EQ(a.status, ServiceResult::Status::kAdmitted) << a.reason;
  EXPECT_EQ(b.status, ServiceResult::Status::kAdmitted) << b.reason;
  EXPECT_TRUE(rendezvous->met());
  expect_conserved(fed);
}

TEST(FederationRouter, RemoveWhileThePlanIsQueuedIsAnsweredAfterTheAdmission) {
  FederationOptions opt;
  opt.shards = 2;
  FederatedService fed(make_two_region_net(), opt);
  Replies replies;

  // Both queues are empty, so the lowest pinned shard, 0, plans; paused,
  // it holds the plan queued.  The round has begun, but no reserve has
  // been sent: shard 1 holds nothing yet.
  fed.shard(0).pause();
  fed.submit_async(
      make_app("cx", QoeSpec::guaranteed_rate(0.5, 0.0), 0, 3, 4.0, 1.0),
      replies.on("submit"));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fed.shard(0).queue_depth() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  ASSERT_EQ(fed.shard(0).queue_depth(), 1u);
  EXPECT_EQ(counter(fed.stats(), "federation.cross.in_flight"), 1.0);
  EXPECT_EQ(counter(fed.stats(), "federation.shard.0.queue_depth"), 1.0);
  EXPECT_FALSE(holds(fed, 1, "cx"));

  // The remove reaches the router while the app plans: it is parked, and
  // answered once the admission resolved.
  fed.remove_async("cx", replies.on("remove"));
  EXPECT_EQ(replies.fired("remove"), 0);
  fed.shard(0).resume();
  fed.drain();
  EXPECT_EQ(replies.order(),
            (std::vector<std::string>{"submit:admitted", "remove:removed"}));
  EXPECT_TRUE(fed.cross_apps().empty());
  for (std::size_t s = 0; s < 2; ++s)
    EXPECT_FALSE(holds(fed, s, "cx")) << "leaked hold on shard " << s;
  expect_conserved(fed);
}

TEST(FederationRouter, DrainWaitsForAPlanInFlight) {
  FederationOptions opt;
  opt.shards = 2;
  FederatedService fed(make_two_region_net(), opt);
  Replies replies;

  fed.shard(0).pause();  // the planning shard: its plan stays queued
  fed.submit_async(
      make_app("cx", QoeSpec::guaranteed_rate(0.5, 0.0), 0, 3, 4.0, 1.0),
      replies.on("cx"));
  auto drained = std::async(std::launch::async, [&fed] { fed.drain(); });
  EXPECT_EQ(drained.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  EXPECT_EQ(replies.fired("cx"), 0);
  fed.shard(0).resume();
  ASSERT_EQ(drained.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  ASSERT_EQ(replies.fired("cx"), 1);
  EXPECT_EQ(replies.last("cx").status, ServiceResult::Status::kAdmitted)
      << replies.last("cx").reason;
  EXPECT_EQ(counter(fed.stats(), "federation.cross.in_flight"), 0.0);
  const obs::Histogram* wait = fed.registry().find_histogram(
      "federation.cross.plan_wait.us");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count(), 1u);
  expect_conserved(fed);
}

TEST(FederationRouter, RemoveSentBeforeTheAdmissionReplyIsAnsweredAfterIt) {
  FederationOptions opt;
  opt.shards = 2;
  FederatedService fed(make_two_region_net(), opt);
  Replies replies;

  fed.shard(1).pause();
  fed.submit_async(
      make_app("cx", QoeSpec::guaranteed_rate(0.5, 0.0), 0, 3, 4.0, 1.0),
      replies.on("submit"));
  // The remove reaches the router while the admission's round waits on
  // shard 1: it is parked, and answered once the admission resolved.
  fed.remove_async("cx", replies.on("remove"));
  fed.remove_async("cx", replies.on("again"));
  fed.shard(1).resume();
  fed.drain();

  EXPECT_EQ(replies.order(),
            (std::vector<std::string>{"submit:admitted", "remove:removed",
                                      "again:not_found"}));
  EXPECT_TRUE(fed.cross_apps().empty());
  for (std::size_t s = 0; s < 2; ++s)
    EXPECT_FALSE(holds(fed, s, "cx")) << "leaked hold on shard " << s;
  expect_conserved(fed);
}

TEST(FederationRouter, DrainWaitsForEveryRoundInFlight) {
  FederationOptions opt;
  opt.shards = 3;
  FederatedService fed(make_three_region_net(), opt);
  Replies replies;
  std::vector<std::string> names;
  for (int i = 0; i < 12; ++i) {
    const std::string name = "cx" + std::to_string(i);
    names.push_back(name);
    fed.submit_async(make_app(name, QoeSpec::guaranteed_rate(0.1, 0.0), 0,
                              i % 2 == 0 ? 3 : 5, 0.5, 0.1),
                     replies.on(name));
    if (i % 3 == 0) fed.remove_async(name, replies.on("rm_" + name));
  }
  fed.drain();
  for (const std::string& name : names) {
    EXPECT_EQ(replies.fired(name), 1) << name;
    EXPECT_EQ(replies.last(name).status, ServiceResult::Status::kAdmitted)
        << name << ": " << replies.last(name).reason;
  }
  for (int i = 0; i < 12; i += 3)
    EXPECT_EQ(replies.fired("rm_cx" + std::to_string(i)), 1);
  EXPECT_EQ(fed.cross_apps().size(), 8u);
  expect_conserved(fed);
}

TEST(FederationRouter, StopRightAfterAPauseAnswersEveryRequestOnce) {
  // Paused shard 1 holds reserves; paused shard 0, which every app pins
  // (a0), holds the plans sent to it, the first app's included.
  for (const std::size_t paused : {std::size_t{1}, std::size_t{0}}) {
    SCOPED_TRACE("paused shard " + std::to_string(paused));
    FederationOptions opt;
    opt.shards = 3;
    Replies replies;
    std::vector<std::string> labels;
    {
      FederatedService fed(make_three_region_net(), opt);
      fed.shard(paused).pause();
      for (int i = 0; i < 6; ++i) {
        const std::string name = "cx" + std::to_string(i);
        labels.push_back(name);
        fed.submit_async(make_app(name, QoeSpec::guaranteed_rate(0.1, 0.0), 0,
                                  i % 2 == 0 ? 3 : 5, 0.5, 0.1),
                         replies.on(name));
        if (i == 0) {
          labels.push_back("rm");
          fed.remove_async(name, replies.on("rm"));
        }
      }
      labels.push_back("local");
      fed.submit_async(make_app("local", QoeSpec::best_effort(1.0), 2, 3),
                       replies.on("local"));
      fed.stop();
      for (const std::string& label : labels)
        EXPECT_EQ(replies.fired(label), 1) << label;
      // Stopped: later requests bounce at once.
      fed.submit_async(
          make_app("late", QoeSpec::guaranteed_rate(0.1, 0.0), 0, 3, 0.5, 0.1),
          replies.on("late"));
      EXPECT_EQ(replies.last("late").status, ServiceResult::Status::kShutdown);
      fed.stop();  // idempotent
    }
    for (const std::string& label : labels)
      EXPECT_EQ(replies.fired(label), 1) << label;
  }
}

TEST(FederationRouter, QueueFullReserveAbortsWithoutResidue) {
  FederationOptions opt;
  opt.shards = 2;
  opt.service.queue_capacity = 1;
  const Network net = make_two_region_net();
  FederatedService fed(net, opt);
  Replies replies;

  // Shard 1's one queue slot is taken, so its reserve bounces.
  fed.shard(1).pause();
  fed.submit_async(make_app("filler", QoeSpec::best_effort(1.0), 2, 3),
                   replies.on("filler"));
  const ServiceResult got =
      fed.submit(make_app("cx", QoeSpec::guaranteed_rate(0.5, 0.0), 0, 3,
                          4.0, 1.0))
          .get();
  EXPECT_EQ(got.status, ServiceResult::Status::kRejected);
  EXPECT_NE(got.reason.find("queue_full"), std::string::npos) << got.reason;
  EXPECT_EQ(counter(fed.stats(), "federation.cross.aborted_reserve"), 1.0);
  EXPECT_TRUE(fed.cross_apps().empty());
  EXPECT_FALSE(holds(fed, 0, "cx"));  // shard 0's hold was released

  // Bit-identical to never having planned the app.
  const CapacitySnapshot fresh(net);
  const CapacitySnapshot residual = fed.plan_residual();
  for (NcpId j = 0; j < static_cast<NcpId>(net.ncp_count()); ++j)
    EXPECT_EQ(residual.ncp(j)[0], fresh.ncp(j)[0]) << "ncp " << j;
  for (LinkId l = 0; l < static_cast<LinkId>(net.link_count()); ++l)
    EXPECT_EQ(residual.link(l), fresh.link(l)) << "link " << l;

  fed.shard(1).resume();
  expect_conserved(fed);
  EXPECT_EQ(replies.last("filler").status, ServiceResult::Status::kAdmitted);
}

TEST(FederationRouter, BouncedPlanRejectsWithoutResidue) {
  FederationOptions opt;
  opt.shards = 2;
  opt.service.queue_capacity = 1;
  const Network net = make_two_region_net();
  FederatedService fed(net, opt);
  Replies replies;

  // Both pinned shards' one queue slot is taken, so the plan bounces
  // before it runs: the app is rejected and nothing was ever held.
  fed.shard(0).pause();
  fed.shard(1).pause();
  fed.submit_async(make_app("fill0", QoeSpec::best_effort(1.0), 0, 1),
                   replies.on("fill0"));
  fed.submit_async(make_app("fill1", QoeSpec::best_effort(1.0), 2, 3),
                   replies.on("fill1"));
  const ServiceResult got =
      fed.submit(make_app("cx", QoeSpec::guaranteed_rate(0.5, 0.0), 0, 3,
                          4.0, 1.0))
          .get();
  EXPECT_EQ(got.status, ServiceResult::Status::kRejected);
  EXPECT_NE(got.reason.find("plan interrupted: queue_full"),
            std::string::npos)
      << got.reason;
  const service::ServiceStats stats = fed.stats();
  EXPECT_EQ(counter(stats, "federation.cross.rejected"), 1.0);
  EXPECT_EQ(counter(stats, "federation.cross.aborted_reserve"), 0.0);
  EXPECT_EQ(counter(stats, "federation.cross.in_flight"), 0.0);
  EXPECT_TRUE(fed.cross_apps().empty());
  const CapacitySnapshot fresh(net);
  const CapacitySnapshot residual = fed.plan_residual();
  for (NcpId j = 0; j < static_cast<NcpId>(net.ncp_count()); ++j)
    EXPECT_EQ(residual.ncp(j)[0], fresh.ncp(j)[0]) << "ncp " << j;
  for (LinkId l = 0; l < static_cast<LinkId>(net.link_count()); ++l)
    EXPECT_EQ(residual.link(l), fresh.link(l)) << "link " << l;

  fed.shard(0).resume();
  fed.shard(1).resume();
  expect_conserved(fed);
  EXPECT_EQ(replies.last("fill0").status, ServiceResult::Status::kAdmitted);
  EXPECT_EQ(replies.last("fill1").status, ServiceResult::Status::kAdmitted);
  for (std::size_t s = 0; s < 2; ++s)
    EXPECT_FALSE(holds(fed, s, "cx")) << "shard " << s;
}

TEST(FederationRouter, ShutdownReserveAbortsWithoutResidue) {
  FederationOptions opt;
  opt.shards = 2;
  const Network net = make_two_region_net();
  FederatedService fed(net, opt);

  fed.shard(1).stop();
  const ServiceResult got =
      fed.submit(make_app("cx", QoeSpec::guaranteed_rate(0.5, 0.0), 0, 3,
                          4.0, 1.0))
          .get();
  EXPECT_EQ(got.status, ServiceResult::Status::kRejected);
  EXPECT_NE(got.reason.find("interrupted"), std::string::npos) << got.reason;
  EXPECT_EQ(counter(fed.stats(), "federation.cross.aborted_reserve"), 1.0);
  EXPECT_TRUE(fed.cross_apps().empty());
  EXPECT_FALSE(holds(fed, 0, "cx"));
  const CapacitySnapshot fresh(net);
  const CapacitySnapshot residual = fed.plan_residual();
  for (NcpId j = 0; j < static_cast<NcpId>(net.ncp_count()); ++j)
    EXPECT_EQ(residual.ncp(j)[0], fresh.ncp(j)[0]) << "ncp " << j;
  for (LinkId l = 0; l < static_cast<LinkId>(net.link_count()); ++l)
    EXPECT_EQ(residual.link(l), fresh.link(l)) << "link " << l;

  // The stopped shard cannot be inspected; that is the only finding.
  fed.drain();
  const ConservationReport report = federation::check_federation(fed);
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  EXPECT_NE(report.violations[0].find("not inspectable"), std::string::npos);
}

TEST(FederationRouter, RoundsInFlightNeverOverbookABoundaryLink) {
  // "ab" carries 1.0; each app sends 0.4 across it.  All six are planned
  // while shard 1 holds every reserve unanswered, so only the pending
  // holds keep later plans from booking the link again.
  FederationOptions opt;
  opt.shards = 3;
  FederatedService fed(make_three_region_net(1.0), opt);
  Replies replies;
  fed.shard(1).pause();
  for (int i = 0; i < 6; ++i)
    fed.submit_async(make_app("cx" + std::to_string(i),
                              QoeSpec::guaranteed_rate(0.4, 0.0), 0, 3, 0.5,
                              0.1),
                     replies.on("cx" + std::to_string(i)));
  fed.shard(1).resume();
  fed.drain();

  int admitted = 0;
  for (int i = 0; i < 6; ++i) {
    const std::string name = "cx" + std::to_string(i);
    ASSERT_EQ(replies.fired(name), 1) << name;
    if (replies.last(name).status == ServiceResult::Status::kAdmitted)
      ++admitted;
  }
  EXPECT_EQ(admitted, 2);
  double used = 0.0;
  for (const auto& [name, ca] : fed.cross_apps())
    used += ca.load.link_load(1);
  EXPECT_LE(used, 1.0 + 1e-9);
  expect_conserved(fed);
}

TEST(FederationRouter, ConcurrentPlansNeverOverbookABoundaryLink) {
  // "ab" carries 2.0 and each app sends 0.3 across it, so at most six
  // fit.  Twenty-four apps arrive at once from both ends; their plans
  // spread over shards 0 and 1 and run side by side on stale residuals,
  // so only the boundary recheck and the reserves keep the link whole.
  FederationOptions opt;
  opt.shards = 3;
  FederatedService fed(make_three_region_net(2.0), opt);
  Replies replies;
  for (int i = 0; i < 24; ++i) {
    const std::string name = "cx" + std::to_string(i);
    const bool forward = i % 2 == 0;
    fed.submit_async(make_app(name, QoeSpec::guaranteed_rate(0.3, 0.0),
                              forward ? 0 : 3, forward ? 3 : 0, 0.1, 0.0),
                     replies.on(name));
  }
  fed.drain();

  int admitted = 0;
  for (int i = 0; i < 24; ++i) {
    const std::string name = "cx" + std::to_string(i);
    ASSERT_EQ(replies.fired(name), 1) << name;
    if (replies.last(name).status == ServiceResult::Status::kAdmitted)
      ++admitted;
  }
  EXPECT_GE(admitted, 1);
  EXPECT_LE(admitted, 6);
  double used = 0.0;
  for (const auto& [name, ca] : fed.cross_apps())
    used += ca.load.link_load(1);
  EXPECT_LE(used, 2.0 + 1e-9);
  EXPECT_EQ(fed.cross_apps().size(), static_cast<std::size_t>(admitted));
  expect_conserved(fed);
}

// ---------------------------------------------------------------------------
// Facade: snapshot, stats, exposition, wire protocol

TEST(Federation, SnapshotAndStatsAggregateAcrossShards) {
  FederationOptions opt;
  opt.shards = 2;
  FederatedService fed(make_two_region_net(), opt);
  service::LocalClient client(fed);

  ASSERT_EQ(client.submit(make_app("loc", QoeSpec::best_effort(1.0), 0, 1))
                .status,
            ServiceResult::Status::kAdmitted);
  ASSERT_EQ(client
                .submit(make_app("cx", QoeSpec::guaranteed_rate(0.5, 0.0), 0,
                                 3, 4.0, 1.0))
                .status,
            ServiceResult::Status::kAdmitted);
  fed.drain();

  const auto snap = fed.snapshot();
  EXPECT_EQ(snap->apps.size(), 2u);
  EXPECT_NE(snap->find("loc"), nullptr);
  EXPECT_NE(snap->find("cx"), nullptr);
  EXPECT_NEAR(snap->total_gr_rate, 0.5, 1e-9);
  EXPECT_GT(snap->version, 0u);

  const service::ServiceStats stats = fed.stats();
  EXPECT_EQ(stats.submits, 2u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 0u);

  const std::string prom = fed.prometheus_text();
  EXPECT_NE(prom.find("federation"), std::string::npos);

  const auto health = fed.health_fields();
  EXPECT_FALSE(health.empty());
}

TEST(Federation, InstalledRegistryCountsEachShardSubmitOnce) {
  // `sparcle_serve --shards N` installs the federation's registry as the
  // global metrics sink.  Each shard service must still count into its
  // own registry only: prometheus_text() and stats() add the shards'
  // registries to the federation's, so a shard that also wrote the
  // global sink would count every submit twice.
  FederationOptions opt;
  opt.shards = 2;
  FederatedService fed(make_two_region_net(), opt);
  obs::Observability sinks;
  sinks.metrics = &fed.registry();
  const obs::ScopedInstall obs_session(sinks);

  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < 40; ++i) {
    const NcpId src = i % 2 == 0 ? 0 : 2;  // region r0 or r1
    futures.push_back(fed.submit(make_app("l" + std::to_string(i),
                                          QoeSpec::best_effort(1.0), src,
                                          src + 1, 0.1)));
  }
  for (auto& f : futures) f.get();
  fed.drain();

  const service::ServiceStats stats = fed.stats();
  EXPECT_EQ(stats.submits, 40u);
  EXPECT_EQ(counter(stats, "service.submits"), 40.0);
  EXPECT_EQ(counter(stats, "federation.local.routed"), 40.0);
  const std::string prom = fed.prometheus_text();
  EXPECT_NE(prom.find("\nsparcle_service_submits_total 40\n"),
            std::string::npos)
      << prom;
}

TEST(Federation, EventServerSpeaksTheUnmodifiedWireProtocol) {
  FederationOptions opt;
  opt.shards = 2;
  FederatedService fed(make_two_region_net(), opt);
  service::EventServer server(fed);  // port 0: ephemeral
  server.start();
  ASSERT_GT(server.port(), 0);

  for (const service::Codec codec :
       {service::Codec::kJson, service::Codec::kBinary}) {
    service::TcpClient client("127.0.0.1", server.port(), codec);
    // A cross-shard app over the stock wire protocol, both codecs.
    const std::string name =
        codec == service::Codec::kJson ? "wire_json" : "wire_bin";
    const std::string block = workload::write_app_text(
        make_app(name, QoeSpec::guaranteed_rate(0.25, 0.0), 0, 3, 4.0, 1.0),
        fed.network());
    EXPECT_EQ(client.submit_app_text(block).at("status"), "admitted")
        << block;
    EXPECT_EQ(client.query(name).at("status"), "ok");
    EXPECT_EQ(client.remove(name).at("status"), "removed");
  }

  server.stop();
  expect_conserved(fed);
}

TEST(Federation, SingleShardDegeneratesToOneScheduler) {
  FederationOptions opt;
  opt.shards = 1;
  FederatedService fed(make_two_region_net(), opt);
  service::LocalClient client(fed);

  // With one shard everything is shard-local, boundary set empty.
  EXPECT_TRUE(fed.plan().boundary_links.empty());
  EXPECT_EQ(client
                .submit(make_app("app", QoeSpec::guaranteed_rate(0.5, 0.0), 0,
                                 3, 4.0, 1.0))
                .status,
            ServiceResult::Status::kAdmitted);
  EXPECT_TRUE(fed.cross_apps().empty());
  expect_conserved(fed);
}

}  // namespace
}  // namespace sparcle
