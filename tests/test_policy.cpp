#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "admission_scan.hpp"
#include "check/fuzzer.hpp"
#include "core/scheduler.hpp"
#include "policy/policy.hpp"
#include "reference_assigner.hpp"
#include "soak/soak.hpp"
#include "testutil.hpp"
#include "workload/scenario_io.hpp"

// Scheduling-policy plugin properties (docs/policies.md):
//  * registry round-trips and rejects unknown names;
//  * each decision point's base rule and each plugin's override behave
//    as documented on hand-built inputs;
//  * policy::AdmissionQueue pops exactly what the old per-pop argmin scan
//    (admission_scan.hpp) picked, for every built-in policy and the
//    service's three queue classes;
//  * a null policy and DefaultPolicy both reproduce, BIT FOR BIT, a
//    scheduler whose ranking and repair order are independent reference
//    code (testutil::reference_assign, a hand-written GR-first order),
//    across the checked-in `.scn` corpus and seeded random scenarios,
//    through admission, failure, repair, recovery, and removal;
//  * every policy is deterministic: identical soak inputs reproduce the
//    identical decision digest.

namespace sparcle {
namespace {

TEST(PolicyRegistry, NamesRoundTripThroughMakePolicy) {
  const std::vector<std::string> names = policy::policy_names();
  ASSERT_GE(names.size(), 4u);
  EXPECT_EQ(names.front(), "default");
  for (const std::string& name : names) {
    const std::unique_ptr<policy::SchedulingPolicy> p =
        policy::make_policy(name);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->name(), name);
  }
  EXPECT_THROW(policy::make_policy("nope"), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Decision-point unit behavior on hand-built inputs.

std::vector<policy::PendingApp> three_pending(Application& a, Application& b,
                                              Application& c) {
  // arrival order: a (big, late deadline, many bits), b (small, middle),
  // c (middle size, earliest deadline, fewest bits).
  return {{&a, 30.0, 9.0, 50.0}, {&b, 20.0, 2.0, 30.0}, {&c, 10.0, 5.0, 10.0}};
}

/// Queues `pending` in arrival order under `pol` and pops it empty.
std::vector<const Application*> pop_order(
    const policy::SchedulingPolicy& pol,
    const std::vector<policy::PendingApp>& pending) {
  policy::AdmissionQueue<const Application*> queue;
  for (const policy::PendingApp& p : pending)
    queue.emplace(policy::queue_order(pol, p), p.app);
  std::vector<const Application*> out;
  for (const auto& [order, app] : queue) out.push_back(app);
  return out;
}

TEST(PolicyDecisions, PickNextPerPolicy) {
  Application a, b, c;
  const std::vector<policy::PendingApp> pending = three_pending(a, b, c);
  using Order = std::vector<const Application*>;
  EXPECT_EQ(pop_order(policy::DefaultPolicy(), pending),
            (Order{&a, &b, &c}));  // FIFO
  EXPECT_EQ(pop_order(policy::ShortestJobFirstPolicy(), pending),
            (Order{&b, &c, &a}));
  EXPECT_EQ(pop_order(policy::DeadlineAwarePolicy(), pending),
            (Order{&c, &b, &a}));  // EDF
  EXPECT_EQ(pop_order(policy::EnergyAwarePolicy(), pending),
            (Order{&c, &b, &a}));  // least bits
  EXPECT_EQ(policy::DefaultPolicy().admission_key(pending[0]), 0.0);
  EXPECT_EQ(policy::ShortestJobFirstPolicy().admission_key(pending[0]), 9.0);
  EXPECT_EQ(policy::DeadlineAwarePolicy().admission_key(pending[0]), 30.0);
  EXPECT_EQ(policy::EnergyAwarePolicy().admission_key(pending[0]), 50.0);
}

// ---------------------------------------------------------------------
// AdmissionQueue == the old argmin scan, pop for pop.

/// Features drawn from small sets, so keys tie often, with ±∞ among
/// them: a patient deadline is +∞, and a size or bit sum can overflow.
policy::PendingApp random_features(Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto value = [&](double finite, double p_inf) {
    if (rng.bernoulli(p_inf)) return kInf;
    return rng.bernoulli(0.05) ? -kInf : finite;
  };
  policy::PendingApp p;
  p.size = value(static_cast<double>(rng.uniform_int(0, 3)), 0.1);
  p.bits = value(static_cast<double>(rng.uniform_int(0, 2)) * 5.0, 0.1);
  p.deadline = value(static_cast<double>(rng.uniform_int(1, 4)), 0.4);
  return p;
}

/// Pushes and pops a seeded random stream through policy::AdmissionQueue
/// and through testutil::ScanQueues; both must pop the same ids.  With
/// `classes` 1 every entry is a submit of one class (the soak queue),
/// with 3 entries spread over the service's control / GR / BE classes.
void expect_queue_matches_scan(const std::string& name, std::size_t classes,
                               std::uint64_t seed) {
  const std::unique_ptr<policy::SchedulingPolicy> pol =
      policy::make_policy(name);
  Rng rng(seed);
  policy::AdmissionQueue<std::size_t> queue;
  testutil::ScanQueues scan;
  std::size_t next_id = 0, popped = 0;
  const auto pop_both = [&] {
    const std::size_t want = scan.pop(name);
    ASSERT_FALSE(queue.empty());
    EXPECT_EQ(queue.begin()->second, want)
        << name << " pop " << popped << testutil::seed_message(seed);
    queue.erase(queue.begin());
    ++popped;
  };
  for (int step = 0; step < 400; ++step) {
    if (scan.empty() || rng.bernoulli(0.6)) {
      const std::size_t cls =
          classes == 1 ? 1 : static_cast<std::size_t>(rng.uniform_int(0, 2));
      const policy::PendingApp p = random_features(rng);
      // The service keys control requests {class 0, 0}, never by policy.
      queue.emplace(cls == 0 ? policy::QueueOrder{0, 0.0}
                             : policy::queue_order(*pol, p, cls),
                    next_id);
      scan.push({cls, next_id, p});
      ++next_id;
    } else {
      pop_both();
    }
  }
  while (!scan.empty()) pop_both();
  EXPECT_TRUE(queue.empty());
}

TEST(AdmissionQueue, PopsWhatTheArgminScanPicked) {
  for (const std::string& name : policy::policy_names())
    for (std::uint64_t i = 0; i < 20; ++i)
      expect_queue_matches_scan(name, 1, testutil::test_seed() + 0xad0 + i);
}

TEST(AdmissionQueue, ServiceClassesPopLikeThePerClassScan) {
  for (const std::string& name : policy::policy_names())
    for (std::uint64_t i = 0; i < 20; ++i)
      expect_queue_matches_scan(name, 3, testutil::test_seed() + 0xc1a + i);
}

/// A custom rule that can return NaN: size 1 keys as NaN.
class NanKeyPolicy final : public policy::SchedulingPolicy {
 public:
  std::string name() const override { return "nan-key"; }
  double admission_key(const policy::PendingApp& p) const override {
    return p.size == 1.0 ? std::numeric_limits<double>::quiet_NaN() : p.size;
  }
};

TEST(AdmissionQueue, NanKeyOrdersAsInfinity) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const NanKeyPolicy pol;
  EXPECT_EQ(policy::queue_order(pol, {.size = 1.0}),
            (policy::QueueOrder{0, kInf}));
  // Arrival order: NaN, 5, +∞, NaN.  The NaN keys tie with +∞ in
  // arrival order behind every finite key.  (The old scan
  // admitted a NaN at the head of the queue first.)
  Application a, b, c, d;
  const std::vector<policy::PendingApp> pending = {
      {.app = &a, .size = 1.0},
      {.app = &b, .size = 5.0},
      {.app = &c, .size = kInf},
      {.app = &d, .size = 1.0}};
  EXPECT_EQ(pop_order(pol, pending),
            (std::vector<const Application*>{&b, &a, &c, &d}));

  // Seeded streams: the queue pops what a scan of the keys, with NaN
  // read as +∞, picks.
  for (std::uint64_t i = 0; i < 20; ++i) {
    const std::uint64_t seed = testutil::test_seed() + 0x7a7 + i;
    Rng rng(seed);
    policy::AdmissionQueue<std::size_t> queue;
    std::vector<std::pair<std::size_t, double>> scan;  // (id, key)
    std::size_t next_id = 0;
    for (int step = 0; step < 300 || !scan.empty(); ++step) {
      if (step < 300 && (scan.empty() || rng.bernoulli(0.6))) {
        policy::PendingApp p = random_features(rng);
        if (rng.bernoulli(0.1)) p.size = kInf;
        const double key = pol.admission_key(p);
        queue.emplace(policy::queue_order(pol, p), next_id);
        scan.emplace_back(next_id++, std::isnan(key) ? kInf : key);
        continue;
      }
      std::size_t pick = 0;
      for (std::size_t k = 1; k < scan.size(); ++k)
        if (scan[k].second < scan[pick].second) pick = k;
      ASSERT_EQ(queue.begin()->second, scan[pick].first)
          << testutil::seed_message(seed);
      queue.erase(queue.begin());
      scan.erase(scan.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
}

TEST(PolicyDecisions, RepairOrderBaseRule) {
  Application gr_big, gr_small, be_hi, be_lo;
  gr_big.qoe = QoeSpec::guaranteed_rate(2.0, 0.0);
  gr_small.qoe = QoeSpec::guaranteed_rate(0.5, 0.0);
  be_hi.qoe = QoeSpec::best_effort(4.0);
  be_lo.qoe = QoeSpec::best_effort(1.0);
  const policy::RepairCandidate rb{&gr_big, 2.0, 1, 10.0};
  const policy::RepairCandidate rs{&gr_small, 0.5, 1, 1.0};
  const policy::RepairCandidate bh{&be_hi, 0.3, 1, 5.0};
  const policy::RepairCandidate bl{&be_lo, 0.3, 0, 2.0};

  const policy::DefaultPolicy def;
  EXPECT_TRUE(def.repair_before(rb, rs));   // larger guarantee first
  EXPECT_TRUE(def.repair_before(rs, bh));   // GR before BE
  EXPECT_TRUE(def.repair_before(bh, bl));   // higher priority first
  EXPECT_FALSE(def.repair_before(bl, bh));

  // SJF restores the cheap GR app first, still never BE before GR.
  const policy::ShortestJobFirstPolicy sjf;
  EXPECT_TRUE(sjf.repair_before(rs, rb));
  EXPECT_TRUE(sjf.repair_before(rb, bl));

  // Deadline-aware: the zero-alive-path BE app jumps the healthy one.
  const policy::DeadlineAwarePolicy edf;
  EXPECT_TRUE(edf.repair_before(bl, bh));
}

// ---------------------------------------------------------------------
// A null policy == DefaultPolicy == independent reference code, bit for
// bit.

/// Algorithm 2's ranking as testutil::reference_assign writes it: its own
/// strict argmin/argmax loop, no policy.
class ReferenceAssigner final : public Assigner {
 public:
  std::string name() const override { return "SPARCLE"; }
  AssignmentResult assign(const AssignmentProblem& problem) const override {
    return testutil::reference_assign(problem, SparcleAssignerOptions{},
                                      "reference ranking");
  }
};

/// The default repair order written out by hand: GR before BE, GR by
/// descending guarantee, BE by descending priority.
class HandWrittenRepairOrder final : public policy::SchedulingPolicy {
 public:
  std::string name() const override { return "reference"; }
  bool repair_before(const policy::RepairCandidate& a,
                     const policy::RepairCandidate& b) const override {
    const auto rank = [](const policy::RepairCandidate& c) {
      const QoeSpec& q = c.app->qoe;
      return q.cls == QoeClass::kGuaranteedRate
                 ? std::pair<int, double>{0, -q.min_rate}
                 : std::pair<int, double>{1, -q.priority};
    };
    return rank(a) < rank(b);
  }
};

void expect_identical_state(const Scheduler& reference,
                            const Scheduler& under_test,
                            const std::string& tag) {
  const auto& a = reference.placed();
  const auto& b = under_test.placed();
  ASSERT_EQ(a.size(), b.size()) << tag;
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(tag + " app " + a[i].app.name);
    ASSERT_EQ(a[i].app.name, b[i].app.name);
    // Bitwise rate equality: the plugin path must not even reorder
    // floating-point operations.
    EXPECT_EQ(std::memcmp(&a[i].allocated_rate, &b[i].allocated_rate,
                          sizeof(double)),
              0)
        << a[i].allocated_rate << " vs " << b[i].allocated_rate;
    ASSERT_EQ(a[i].paths.size(), b[i].paths.size());
    ASSERT_EQ(a[i].path_rates.size(), b[i].path_rates.size());
    for (std::size_t p = 0; p < a[i].paths.size(); ++p) {
      EXPECT_EQ(std::memcmp(&a[i].path_rates[p], &b[i].path_rates[p],
                            sizeof(double)),
                0);
      const std::size_t cts = a[i].app.graph->ct_count();
      for (CtId ct = 0; ct < static_cast<CtId>(cts); ++ct)
        EXPECT_EQ(a[i].paths[p].placement.ct_host(ct),
                  b[i].paths[p].placement.ct_host(ct))
            << "path " << p << " ct " << ct;
      ASSERT_EQ(a[i].paths[p].elements.size(), b[i].paths[p].elements.size());
    }
  }
}

/// Drives the reference scheduler, one with a null policy and one with
/// DefaultPolicy through the identical admission + failure + repair +
/// recovery + removal sequence and compares full state after every
/// phase.
void run_equivalence(const workload::ScenarioFile& scenario,
                     const std::string& tag) {
  SchedulerOptions reference_options;
  reference_options.policy = std::make_shared<HandWrittenRepairOrder>();
  SchedulerOptions plugged_options;
  plugged_options.policy = std::make_shared<policy::DefaultPolicy>();
  Scheduler reference(scenario.net, std::make_unique<ReferenceAssigner>(),
                      reference_options);
  Scheduler null_policy(scenario.net);  // resolves to DefaultPolicy
  Scheduler plugged(scenario.net, plugged_options);
  Scheduler* const all[] = {&reference, &null_policy, &plugged};
  const auto expect_all_identical = [&](const std::string& phase) {
    expect_identical_state(reference, null_policy, tag + " null policy " + phase);
    expect_identical_state(reference, plugged, tag + " DefaultPolicy " + phase);
  };

  for (const Application& app : scenario.apps) {
    const bool want = reference.submit(app).admitted;
    EXPECT_EQ(null_policy.submit(app).admitted, want) << tag << " app " << app.name;
    EXPECT_EQ(plugged.submit(app).admitted, want) << tag << " app " << app.name;
  }
  expect_all_identical("after admission");

  // Fail every other link, repairing after each — the repair-ordering
  // decision point — then recover and fail an NCP for the node path.
  const std::size_t links = scenario.net.link_count();
  for (std::size_t l = 0; l < links; l += 2) {
    const ElementKey dead{ElementKey::Kind::kLink,
                          static_cast<std::int32_t>(l)};
    for (Scheduler* s : all) {
      s->mark_failed(dead);
      s->repair(dead);
    }
  }
  expect_all_identical("after link churn");
  for (std::size_t l = 0; l < links; l += 2) {
    const ElementKey dead{ElementKey::Kind::kLink,
                          static_cast<std::int32_t>(l)};
    for (Scheduler* s : all) s->mark_recovered(dead);
  }
  if (scenario.net.ncp_count() > 1) {
    const ElementKey dead{ElementKey::Kind::kNcp, 1};
    for (Scheduler* s : all) {
      s->mark_failed(dead);
      s->repair(dead);
    }
    expect_all_identical("after ncp failure");
  }

  // Remove the first admitted app from all three.
  if (!reference.placed().empty()) {
    const std::string name = reference.placed().front().app.name;
    for (Scheduler* s : all) EXPECT_TRUE(s->remove(name));
    expect_all_identical("after removal");
  }
}

TEST(DefaultPolicyEquivalence, SceneCorpus) {
  // twin_relays has an exact γ tie in its most-constrained ranking
  // rounds, so it pins the lower-CT-id tie break of select_ct.
  for (const std::string name : {"edge_campus", "twin_relays"})
    run_equivalence(workload::load_scenario_file(
                        std::string(SPARCLE_SOURCE_DIR) +
                        "/examples/scenarios/" + name + ".scn"),
                    name);
}

TEST(DefaultPolicyEquivalence, SeededRandomScenarios) {
  check::FuzzOptions gen;
  gen.max_ncps = 8;
  gen.max_apps = 6;
  const std::size_t scenarios =
      testutil::env_size("SPARCLE_POLICY_EQUIV_SCENARIOS", 25);
  for (std::size_t i = 0; i < scenarios; ++i) {
    const std::uint64_t seed = testutil::test_seed() + 0xe90 + i * 7919;
    Rng rng(seed);
    SCOPED_TRACE(testutil::seed_message(seed));
    run_equivalence(check::random_scenario(rng, gen),
                    "random#" + std::to_string(i));
  }
}

// ---------------------------------------------------------------------
// Determinism: identical inputs -> identical decision digest, for every
// policy, including the churn-interleaved scenario.

TEST(PolicyDeterminism, IdenticalDigestAcrossRuns) {
  for (const std::string& name : policy::policy_names()) {
    for (const std::string& scenario : {std::string("flash_crowd"),
                                        std::string("regional_outage")}) {
      const std::uint64_t seed = testutil::test_seed() + 0xd1ce;
      soak::SoakOptions options =
          soak::cell_options(scenario, name, 150, seed);
      options.invariant_epochs = 0;  // speed: determinism is the subject
      const soak::SoakResult r1 = soak::run_soak(options);
      const soak::SoakResult r2 = soak::run_soak(options);
      EXPECT_EQ(r1.decision_digest, r2.decision_digest)
          << name << " x " << scenario << testutil::seed_message(seed);
      EXPECT_EQ(r1.admitted, r2.admitted) << name << " x " << scenario;
      EXPECT_EQ(r1.reneged, r2.reneged) << name << " x " << scenario;
    }
  }
}

}  // namespace
}  // namespace sparcle
