#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/fuzzer.hpp"
#include "core/scheduler.hpp"
#include "policy/policy.hpp"
#include "soak/soak.hpp"
#include "testutil.hpp"
#include "workload/scenario_io.hpp"

// Scheduling-policy plugin properties (docs/policies.md):
//  * registry round-trips and rejects unknown names;
//  * each decision point's base rule and each plugin's override behave
//    as documented on hand-built inputs;
//  * a null policy means DefaultPolicy: the two are BIT-IDENTICAL across
//    the checked-in `.scn` corpus and seeded random scenarios, through
//    admission, failure, repair, recovery, and removal;
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
  return {{&a, 0.0, 30.0, 9.0, 50.0},
          {&b, 1.0, 20.0, 2.0, 30.0},
          {&c, 2.0, 10.0, 5.0, 10.0}};
}

TEST(PolicyDecisions, PickNextPerPolicy) {
  Application a, b, c;
  std::vector<policy::PendingApp> pending = three_pending(a, b, c);
  EXPECT_EQ(policy::DefaultPolicy().pick_next(pending), 0u);  // FIFO
  EXPECT_EQ(policy::ShortestJobFirstPolicy().pick_next(pending), 1u);
  EXPECT_EQ(policy::DeadlineAwarePolicy().pick_next(pending), 2u);  // EDF
  EXPECT_EQ(policy::EnergyAwarePolicy().pick_next(pending), 2u);  // min bits
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
// DefaultPolicy == no-policy, bit for bit.

void expect_identical_state(const Scheduler& legacy,
                            const Scheduler& plugged,
                            const std::string& tag) {
  const auto& a = legacy.placed();
  const auto& b = plugged.placed();
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

/// Drives both schedulers through the identical admission + failure +
/// repair + recovery + removal sequence and compares full state after
/// every phase.
void run_equivalence(const workload::ScenarioFile& scenario,
                     const std::string& tag) {
  SchedulerOptions legacy_options;  // policy == nullptr: resolves to default
  SchedulerOptions plugged_options;
  plugged_options.policy = std::make_shared<policy::DefaultPolicy>();
  Scheduler legacy(scenario.net, legacy_options);
  Scheduler plugged(scenario.net, plugged_options);

  for (const Application& app : scenario.apps) {
    const AdmissionResult ra = legacy.submit(app);
    const AdmissionResult rb = plugged.submit(app);
    EXPECT_EQ(ra.admitted, rb.admitted) << tag << " app " << app.name;
  }
  expect_identical_state(legacy, plugged, tag + " after admission");

  // Fail every other link, repairing after each — the repair-ordering
  // decision point — then recover and fail an NCP for the node path.
  const std::size_t links = scenario.net.link_count();
  for (std::size_t l = 0; l < links; l += 2) {
    const ElementKey dead{ElementKey::Kind::kLink,
                          static_cast<std::int32_t>(l)};
    legacy.mark_failed(dead);
    plugged.mark_failed(dead);
    legacy.repair(dead);
    plugged.repair(dead);
  }
  expect_identical_state(legacy, plugged, tag + " after link churn");
  for (std::size_t l = 0; l < links; l += 2) {
    const ElementKey dead{ElementKey::Kind::kLink,
                          static_cast<std::int32_t>(l)};
    legacy.mark_recovered(dead);
    plugged.mark_recovered(dead);
  }
  if (scenario.net.ncp_count() > 1) {
    const ElementKey dead{ElementKey::Kind::kNcp, 1};
    legacy.mark_failed(dead);
    plugged.mark_failed(dead);
    legacy.repair(dead);
    plugged.repair(dead);
    expect_identical_state(legacy, plugged, tag + " after ncp failure");
  }

  // Remove the first admitted app from both.
  if (!legacy.placed().empty()) {
    const std::string name = legacy.placed().front().app.name;
    EXPECT_TRUE(legacy.remove(name));
    EXPECT_TRUE(plugged.remove(name));
    expect_identical_state(legacy, plugged, tag + " after removal");
  }
}

TEST(DefaultPolicyEquivalence, SceneCorpus) {
  run_equivalence(workload::load_scenario_file(
                      std::string(SPARCLE_SOURCE_DIR) +
                      "/examples/scenarios/edge_campus.scn"),
                  "edge_campus");
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
