#include "federation/federation.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
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
  // One reserve round: a single apply, hence a single batch, per shard.
  for (std::size_t s = 0; s < 2; ++s)
    EXPECT_EQ(fed.shard(s).stats().batches, before[s] + 1) << "shard " << s;
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

/// DefaultPolicy that counts its candidate-ranking calls, from the shard
/// scheduling threads and the router thread alike.
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

  // a0 -> b1 spans both shards: the router plans it, by the same policy.
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
