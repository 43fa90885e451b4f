#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "policy/policy.hpp"
#include "soak/soak.hpp"
#include "testutil.hpp"

// Tier-1 smoke soak (docs/policies.md): every adversarial scenario
// generator x every scheduling policy runs at least one short cell —
// the full invariant battery at sampled epochs included — inside the
// ordinary ctest budget.  The nightly tools/soak.sh runs the same
// matrix at six orders of magnitude more arrivals; this test exists so
// a policy or generator regression fails in CI, not at 3am.

namespace sparcle {
namespace {

TEST(SoakSmoke, EveryScenarioPolicyCellClean) {
  const std::size_t arrivals =
      testutil::env_size("SPARCLE_SMOKE_ARRIVALS", 120);
  const std::uint64_t seed = testutil::test_seed() + 0x50a4;
  for (const std::string& scenario : soak::tournament_scenarios()) {
    for (const std::string& policy : policy::policy_names()) {
      SCOPED_TRACE(scenario + " x " + policy + testutil::seed_message(seed));
      soak::SoakOptions options =
          soak::cell_options(scenario, policy, arrivals, seed);
      options.invariant_epochs = 2;
      const soak::SoakResult result = soak::run_soak(options);

      for (const std::string& violation : result.violations)
        ADD_FAILURE() << violation;
      EXPECT_EQ(result.arrivals, arrivals);
      // Conservation: every arrival is accounted for exactly once.
      EXPECT_EQ(result.admitted + result.rejected + result.reneged +
                    result.queue_full,
                result.arrivals);
      EXPECT_GE(result.epochs.size(), 2u);
      EXPECT_GT(result.admitted, 0u);
      if (scenario == "regional_outage") {
        EXPECT_GT(result.churn_events, 0u);
        EXPECT_EQ(result.repairs, result.churn_events);
      }
    }
  }
}

// The same cells against a federated site (docs/federation.md): the
// soak's event loop drives a FederatedService, so shard-local arrivals
// exercise the per-shard pipelines and the locality tail exercises the
// cross-shard reserve round, under churn in regional_outage; every
// invariant epoch runs the federation conservation check.  The digest
// check pins determinism — routing through shards must not depend on
// thread interleaving.
TEST(SoakSmoke, FederatedCellCleanAndDeterministic) {
  const std::size_t arrivals =
      testutil::env_size("SPARCLE_SMOKE_ARRIVALS", 120);
  const std::uint64_t seed = testutil::test_seed() + 0xfed5;
  for (const std::string scenario : {"steady", "regional_outage"}) {
    for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
      SCOPED_TRACE(scenario + " x default, shards=" +
                   std::to_string(shards) + testutil::seed_message(seed));
      soak::SoakOptions options =
          soak::cell_options(scenario, "default", arrivals, seed);
      options.invariant_epochs = 2;
      options.federated_shards = shards;
      const soak::SoakResult result = soak::run_soak(options);

      for (const std::string& violation : result.violations)
        ADD_FAILURE() << violation;
      EXPECT_EQ(result.admitted + result.rejected + result.reneged +
                    result.queue_full,
                result.arrivals);
      EXPECT_GT(result.admitted, 0u);
      EXPECT_GE(result.epochs.size(), 2u);
      if (scenario == "regional_outage") {
        EXPECT_GT(result.churn_events, 0u);
        EXPECT_EQ(result.repairs, result.churn_events);
      }

      if (shards == 2) {
        const soak::SoakResult again = soak::run_soak(options);
        EXPECT_EQ(result.decision_digest, again.decision_digest);
        EXPECT_EQ(result.admitted, again.admitted);
      }
    }
  }
}

// One shard is one scheduler behind a SchedulerService, so a one-shard
// federation must decide exactly like the raw Scheduler under the same
// soak loop — churn included, where the shard runs every failure,
// recovery and repair in its own service batch.  The digests differ by
// design (each backend folds its own fields), so the cells are compared
// on their counters, their final rates and energy bit for bit, and
// every sampled epoch.
TEST(SoakSmoke, OneShardFederationSoaksLikeOneScheduler) {
  const std::size_t arrivals =
      testutil::env_size("SPARCLE_SMOKE_ARRIVALS", 120);
  const std::uint64_t seed = testutil::test_seed() + 0x50a4;
  std::vector<std::pair<std::string, std::string>> cells;
  for (const std::string& scenario : soak::tournament_scenarios())
    cells.emplace_back(scenario, "default");
  for (const std::string& policy : policy::policy_names())
    if (policy != "default") cells.emplace_back("regional_outage", policy);

  for (const auto& [scenario, policy] : cells) {
    SCOPED_TRACE(scenario + " x " + policy + testutil::seed_message(seed));
    soak::SoakOptions options =
        soak::cell_options(scenario, policy, arrivals, seed);
    options.invariant_epochs = 2;
    const soak::SoakResult single = soak::run_soak(options);
    options.federated_shards = 1;
    const soak::SoakResult sharded = soak::run_soak(options);

    for (const std::string& violation : sharded.violations)
      ADD_FAILURE() << violation;
    EXPECT_EQ(single.arrivals, sharded.arrivals);
    EXPECT_EQ(single.admitted, sharded.admitted);
    EXPECT_EQ(single.rejected, sharded.rejected);
    EXPECT_EQ(single.reneged, sharded.reneged);
    EXPECT_EQ(single.queue_full, sharded.queue_full);
    EXPECT_EQ(single.departed, sharded.departed);
    EXPECT_EQ(single.gr_admitted, sharded.gr_admitted);
    EXPECT_EQ(single.churn_events, sharded.churn_events);
    EXPECT_EQ(single.repairs, sharded.repairs);
    EXPECT_EQ(single.final_gr_rate, sharded.final_gr_rate);
    EXPECT_EQ(single.final_be_rate, sharded.final_be_rate);
    EXPECT_EQ(single.energy_watts, sharded.energy_watts);
    EXPECT_EQ(single.admit_rate_drift, sharded.admit_rate_drift);
    ASSERT_EQ(single.epochs.size(), sharded.epochs.size());
    for (std::size_t i = 0; i < single.epochs.size(); ++i) {
      SCOPED_TRACE("epoch " + std::to_string(i));
      EXPECT_EQ(single.epochs[i].placed, sharded.epochs[i].placed);
      EXPECT_EQ(single.epochs[i].gr_rate, sharded.epochs[i].gr_rate);
      EXPECT_EQ(single.epochs[i].be_rate, sharded.epochs[i].be_rate);
    }
  }
}

}  // namespace
}  // namespace sparcle
