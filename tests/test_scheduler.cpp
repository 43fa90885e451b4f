#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "baselines/greedy_baselines.hpp"
#include "core/sparcle_assigner.hpp"
#include "obs/obs.hpp"
#include "workload/task_graphs.hpp"

namespace sparcle {
namespace {

/// Source and destination sites joined by two disjoint relays:
///   src - r1 - dst   and   src - r2 - dst.
/// Relays fail with probability `relay_pf`; everything else is reliable.
Network make_two_relay_net(double relay_pf = 0.0, double relay_cap = 10.0) {
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("src", ResourceVector::scalar(1.0));
  net.add_ncp("r1", ResourceVector::scalar(relay_cap), relay_pf);
  net.add_ncp("r2", ResourceVector::scalar(relay_cap), relay_pf);
  net.add_ncp("dst", ResourceVector::scalar(1.0));
  net.add_link("s1", 0, 1, 1000.0);
  net.add_link("1d", 1, 3, 1000.0);
  net.add_link("s2", 0, 2, 1000.0);
  net.add_link("2d", 2, 3, 1000.0);
  return net;
}

/// source -> mid (5 cpu units) -> sink, 1-bit transports.
std::shared_ptr<const TaskGraph> make_relay_app_graph() {
  auto g = std::make_shared<TaskGraph>(ResourceSchema::cpu_only());
  const CtId s = g->add_ct("source", ResourceVector::scalar(0));
  const CtId m = g->add_ct("mid", ResourceVector::scalar(5));
  const CtId t = g->add_ct("sink", ResourceVector::scalar(0));
  g->add_tt("sm", 1.0, s, m);
  g->add_tt("mt", 1.0, m, t);
  g->finalize();
  return g;
}

Application make_app(const std::string& name, QoeSpec qoe) {
  Application app;
  app.name = name;
  app.graph = make_relay_app_graph();
  app.qoe = qoe;
  app.pinned = {{0, 0}, {2, 3}};
  return app;
}

TEST(Scheduler, AdmitsSingleBestEffortAppAtFullRate) {
  Scheduler sched(make_two_relay_net());
  const AdmissionResult r = sched.submit(make_app("a", QoeSpec::best_effort(1.0)));
  ASSERT_TRUE(r.admitted) << r.reason;
  EXPECT_EQ(r.path_count, 1u);
  // Relay cpu 10 / 5 = 2 units/s; the PF solve should hand it all over.
  EXPECT_NEAR(r.rate, 2.0, 1e-3);
  EXPECT_EQ(sched.placed().size(), 1u);
}

TEST(Scheduler, EqualPriorityAppsLandOnDisjointRelays) {
  Scheduler sched(make_two_relay_net());
  const auto r1 = sched.submit(make_app("a", QoeSpec::best_effort(1.0)));
  const auto r2 = sched.submit(make_app("b", QoeSpec::best_effort(1.0)));
  ASSERT_TRUE(r1.admitted);
  ASSERT_TRUE(r2.admitted);
  // Prediction steers the second app to the free relay: both get ~2.
  EXPECT_NEAR(sched.placed()[0].allocated_rate, 2.0, 1e-2);
  EXPECT_NEAR(sched.placed()[1].allocated_rate, 2.0, 1e-2);
}

TEST(Scheduler, PriorityShapesSharedAllocation) {
  // A single relay both apps must share; priorities 2:1.
  SchedulerOptions opt;
  Network net2(ResourceSchema::cpu_only());
  net2.add_ncp("src", ResourceVector::scalar(1.0));
  net2.add_ncp("r1", ResourceVector::scalar(10.0));
  net2.add_ncp("dst", ResourceVector::scalar(1.0));
  net2.add_link("s1", 0, 1, 1000.0);
  net2.add_link("1d", 1, 2, 1000.0);
  Scheduler sched(std::move(net2), opt);

  Application a = make_app("a", QoeSpec::best_effort(2.0));
  a.pinned = {{0, 0}, {2, 2}};
  Application b = make_app("b", QoeSpec::best_effort(1.0));
  b.pinned = {{0, 0}, {2, 2}};
  ASSERT_TRUE(sched.submit(a).admitted);
  ASSERT_TRUE(sched.submit(b).admitted);
  const double ra = sched.placed()[0].allocated_rate;
  const double rb = sched.placed()[1].allocated_rate;
  EXPECT_NEAR(ra / rb, 2.0, 0.05);
  EXPECT_NEAR(ra + rb, 2.0, 1e-2);  // relay cpu 10 / 5
}

TEST(Scheduler, BeAvailabilityRequirementAddsSecondPath) {
  // Relays fail 10% of the time; one path gives 0.9, two give 0.99.
  Scheduler sched(make_two_relay_net(0.1));
  const auto r =
      sched.submit(make_app("a", QoeSpec::best_effort(1.0, 0.95)));
  ASSERT_TRUE(r.admitted) << r.reason;
  EXPECT_EQ(r.path_count, 2u);
  EXPECT_NEAR(r.availability, 0.99, 1e-9);
}

/// SPARCLE's assigner, keeping the capacities of every problem it is
/// asked to solve (for a BE arrival's first path: the eq. (6)
/// prediction).
class CapacityRecordingAssigner final : public Assigner {
 public:
  explicit CapacityRecordingAssigner(
      std::shared_ptr<std::vector<CapacitySnapshot>> seen)
      : seen_(std::move(seen)) {}
  std::string name() const override { return "recording"; }
  AssignmentResult assign(const AssignmentProblem& problem) const override {
    seen_->push_back(problem.capacities);
    return inner_.assign(problem);
  }

 private:
  SparcleAssigner inner_;
  std::shared_ptr<std::vector<CapacitySnapshot>> seen_;
};

TEST(Scheduler, PredictionCountsAnAppOncePerElement) {
  // "a" holds two paths, src-r1-dst and src-r2-dst, so both cross src and
  // dst.  An arriving app of equal priority must predict half of src and
  // dst (a counted once there, eq. (6)), not a third, and half of each
  // relay and link, which one path of a crosses.
  auto seen = std::make_shared<std::vector<CapacitySnapshot>>();
  Scheduler sched(make_two_relay_net(0.1),
                  std::make_unique<CapacityRecordingAssigner>(seen));
  const auto a = sched.submit(make_app("a", QoeSpec::best_effort(1.0, 0.95)));
  ASSERT_TRUE(a.admitted) << a.reason;
  ASSERT_EQ(a.path_count, 2u);
  seen->clear();
  ASSERT_TRUE(sched.submit(make_app("b", QoeSpec::best_effort(1.0))).admitted);
  ASSERT_FALSE(seen->empty());
  const CapacitySnapshot& predicted = seen->front();
  EXPECT_DOUBLE_EQ(predicted.ncp(0)[0], 0.5);  // src: 1.0 * 1/(1+1)
  EXPECT_DOUBLE_EQ(predicted.ncp(3)[0], 0.5);  // dst
  EXPECT_DOUBLE_EQ(predicted.ncp(1)[0], 5.0);  // r1: 10 * 1/2
  EXPECT_DOUBLE_EQ(predicted.ncp(2)[0], 5.0);  // r2
  for (LinkId l = 0; l < 4; ++l) EXPECT_DOUBLE_EQ(predicted.link(l), 500.0);
}

TEST(Scheduler, BeRejectedWhenAvailabilityUnreachable) {
  Scheduler sched(make_two_relay_net(0.1));
  const auto r =
      sched.submit(make_app("a", QoeSpec::best_effort(1.0, 0.999)));
  EXPECT_FALSE(r.admitted);
  EXPECT_TRUE(sched.placed().empty());  // no state leak
}

TEST(Scheduler, RejectionDoesNotDisturbExistingAllocations) {
  Scheduler sched(make_two_relay_net(0.1));
  ASSERT_TRUE(sched.submit(make_app("ok", QoeSpec::best_effort(1.0))).admitted);
  const double before = sched.placed()[0].allocated_rate;
  EXPECT_FALSE(
      sched.submit(make_app("no", QoeSpec::best_effort(1.0, 0.999))).admitted);
  EXPECT_EQ(sched.placed().size(), 1u);
  EXPECT_NEAR(sched.placed()[0].allocated_rate, before, 1e-6);
}

TEST(Scheduler, GrReservesResources) {
  Scheduler sched(make_two_relay_net());
  const auto r = sched.submit(make_app("gr", QoeSpec::guaranteed_rate(1.5, 0.0)));
  ASSERT_TRUE(r.admitted) << r.reason;
  EXPECT_NEAR(r.rate, 1.5, 1e-9);  // capped at the requested rate
  // 1.5 units/s * 5 cpu = 7.5 reserved on one relay.
  const auto& resid = sched.gr_residual_capacities();
  const double left = resid.ncp(1)[0] + resid.ncp(2)[0];
  EXPECT_NEAR(left, 20.0 - 7.5, 1e-9);
}

TEST(Scheduler, GrRejectedWhenRateUnreachable) {
  Scheduler sched(make_two_relay_net());
  // Two relays can sustain 4 units/s total; 5 is unreachable.
  const auto r = sched.submit(make_app("gr", QoeSpec::guaranteed_rate(5.0, 0.0)));
  EXPECT_FALSE(r.admitted);
  EXPECT_TRUE(sched.placed().empty());
  // Nothing reserved.
  EXPECT_DOUBLE_EQ(sched.gr_residual_capacities().ncp(1)[0], 10.0);
}

TEST(Scheduler, GrAggregatesPathsToReachRate) {
  Scheduler sched(make_two_relay_net());
  // 3 units/s needs both relays (2 each, capped to... path1 = 2, path2 = 2).
  const auto r = sched.submit(make_app("gr", QoeSpec::guaranteed_rate(3.0, 0.0)));
  ASSERT_TRUE(r.admitted) << r.reason;
  EXPECT_EQ(r.path_count, 2u);
  EXPECT_GE(r.rate, 3.0);
  EXPECT_NEAR(sched.total_gr_rate(), r.rate, 1e-12);
}

TEST(Scheduler, GrMinRateAvailabilityNeedsRedundantPaths) {
  // Relays fail 10%; request 1.5 units/s with 0.97 min-rate availability.
  // One path: P = 0.9.  Two paths (each capped at 1.5): either path alone
  // qualifies -> P(at least one up) = 0.99 >= 0.97.
  Scheduler sched(make_two_relay_net(0.1));
  const auto r =
      sched.submit(make_app("gr", QoeSpec::guaranteed_rate(1.5, 0.97)));
  ASSERT_TRUE(r.admitted) << r.reason;
  EXPECT_EQ(r.path_count, 2u);
  EXPECT_NEAR(r.availability, 0.99, 1e-9);
}

TEST(Scheduler, GrStarvesLaterBestEffort) {
  Scheduler sched(make_two_relay_net());
  ASSERT_TRUE(
      sched.submit(make_app("gr", QoeSpec::guaranteed_rate(3.8, 0.0)))
          .admitted);
  // 3.8 * 5 = 19 of 20 relay cpu reserved; BE sees the crumbs.
  const auto r = sched.submit(make_app("be", QoeSpec::best_effort(1.0)));
  ASSERT_TRUE(r.admitted);
  EXPECT_LE(r.rate, 0.25);
  EXPECT_GT(r.rate, 0.0);
}

TEST(Scheduler, ArrivalOrderBarelyMattersWithPrediction) {
  auto run = [&](bool high_first) {
    Scheduler sched(make_two_relay_net());
    Application hi = make_app("hi", QoeSpec::best_effort(2.0));
    Application lo = make_app("lo", QoeSpec::best_effort(1.0));
    if (high_first) {
      EXPECT_TRUE(sched.submit(hi).admitted);
      EXPECT_TRUE(sched.submit(lo).admitted);
    } else {
      EXPECT_TRUE(sched.submit(lo).admitted);
      EXPECT_TRUE(sched.submit(hi).admitted);
    }
    double hi_rate = 0, lo_rate = 0;
    for (const auto& pa : sched.placed())
      (pa.app.name == "hi" ? hi_rate : lo_rate) = pa.allocated_rate;
    return std::make_pair(hi_rate, lo_rate);
  };
  const auto [h1, l1] = run(true);
  const auto [h2, l2] = run(false);
  EXPECT_NEAR(h1, h2, 0.05);
  EXPECT_NEAR(l1, l2, 0.05);
}

TEST(Scheduler, WorksWithBaselineAssigner) {
  Scheduler sched(make_two_relay_net(),
                  std::make_unique<GreedySortedAssigner>());
  const auto r = sched.submit(make_app("a", QoeSpec::best_effort(1.0)));
  EXPECT_TRUE(r.admitted) << r.reason;
}

TEST(Scheduler, ValidatesApplications) {
  Scheduler sched(make_two_relay_net());
  Application bad = make_app("bad", QoeSpec::best_effort(1.0));
  bad.pinned.erase(0);  // source not pinned
  EXPECT_THROW(sched.submit(bad), std::invalid_argument);

  Application neg = make_app("neg", QoeSpec::best_effort(-1.0));
  EXPECT_THROW(sched.submit(neg), std::invalid_argument);
}

TEST(Scheduler, BeUtilityReflectsAllocations) {
  Scheduler sched(make_two_relay_net());
  EXPECT_DOUBLE_EQ(sched.be_utility(), 0.0);  // no BE apps yet
  ASSERT_TRUE(sched.submit(make_app("a", QoeSpec::best_effort(1.0))).admitted);
  ASSERT_TRUE(sched.submit(make_app("b", QoeSpec::best_effort(1.0))).admitted);
  // Both at ~2.0: utility ~ 2 log 2.
  EXPECT_NEAR(sched.be_utility(), 2.0 * std::log(2.0), 0.05);
}

TEST(Scheduler, UnconvergedPfSolveIsCountedAndStoresAFiniteRate) {
  // src - relay - dst; the relay's 10 cpu carry the app's 5-cpu stage at
  // rate 2.  A priority of 1e300 is valid, but its duals are too large for
  // the PF solver's gap rule, so the solve ends unconverged: the rate it
  // stores must still be finite, and the solve must be counted.
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("src", ResourceVector::scalar(1.0));
  net.add_ncp("relay", ResourceVector::scalar(10.0));
  net.add_ncp("dst", ResourceVector::scalar(1.0));
  net.add_link("sr", 0, 1, 1000.0);
  net.add_link("rd", 1, 2, 1000.0);
  Application app;
  app.name = "huge";
  app.graph = make_relay_app_graph();
  app.qoe = QoeSpec::best_effort(1e300);
  app.pinned = {{0, 0}, {2, 2}};

  obs::MetricsRegistry reg;
  obs::Observability o;
  o.metrics = &reg;
  const obs::ScopedInstall session(o);
  Scheduler sched(net);
  const AdmissionResult r = sched.submit(app);
  ASSERT_TRUE(r.admitted) << r.reason;
  ASSERT_EQ(sched.placed().size(), 1u);
  const double rate = sched.placed()[0].allocated_rate;
  ASSERT_TRUE(std::isfinite(rate));
  EXPECT_NEAR(rate, 2.0, 1e-6);
  EXPECT_GE(sched.pf_solver_stats().solves, 1u);
  EXPECT_EQ(reg.counter("scheduler.solver.not_converged").value(),
            sched.pf_solver_stats().solves);
}

TEST(Scheduler, RejectsBadOptions) {
  SchedulerOptions opt;
  opt.max_paths = 0;
  EXPECT_THROW(Scheduler(make_two_relay_net(), opt), std::invalid_argument);
  opt.max_paths = 99;
  EXPECT_THROW(Scheduler(make_two_relay_net(), opt), std::invalid_argument);
}

}  // namespace
}  // namespace sparcle
