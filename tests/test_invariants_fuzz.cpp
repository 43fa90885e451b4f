#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/exhaustive.hpp"
#include "check/fuzzer.hpp"
#include "check/invariants.hpp"
#include "check/oracles.hpp"
#include "core/sparcle_assigner.hpp"
#include "policy/policy.hpp"
#include "testutil.hpp"

// The invariant fuzz gate: seeded random scenarios through the scheduler
// pipeline + oracles (CI runs the fixed default; nightly raises
// SPARCLE_FUZZ_ITERS), plus a deterministic exhaustive-differential sweep
// over every enumerable small instance (all tiny tree topologies x task
// graph shapes x source/sink pin combinations).

namespace sparcle {
namespace {

TEST(InvariantsFuzz, SchedulerPipelineAndOraclesClean) {
  check::FuzzOptions options;
  options.seed = testutil::test_seed() + 0xf00d;
  options.iterations = testutil::env_size("SPARCLE_FUZZ_ITERS", 200);
  const char* dir = std::getenv("SPARCLE_FUZZ_REPRO_DIR");
  options.repro_dir = (dir && *dir) ? dir : ::testing::TempDir();

  const check::FuzzOutcome outcome = check::fuzz_scheduler(options);
  EXPECT_EQ(outcome.iterations_run, options.iterations);
  if (outcome.failure) {
    const check::FuzzFailure& f = *outcome.failure;
    FAIL() << "fuzz failure at iteration " << f.iteration << " (scenario seed "
           << f.scenario_seed << ") in phase " << f.phase << ":\n"
           << f.report.to_string() << "repro: "
           << (f.repro_path.empty() ? std::string("<not written>")
                                    : f.repro_path);
  }
}

// The policy axis: the same pipeline with a random scheduling-policy
// plugin per iteration (docs/policies.md).  The invariant battery must
// hold under ANY policy — plugins choose orderings, never feasibility —
// while the optimality oracles keep running the default algorithm.  A
// failure records the active policy in the report and in the repro's
// `# policy:` header.
TEST(InvariantsFuzz, PolicyAxisPipelineClean) {
  check::FuzzOptions options;
  options.seed = testutil::test_seed() + 0xbeef;
  options.iterations = testutil::env_size("SPARCLE_FUZZ_ITERS", 200) / 2;
  options.policies = policy::policy_names();
  const char* dir = std::getenv("SPARCLE_FUZZ_REPRO_DIR");
  options.repro_dir = (dir && *dir) ? dir : ::testing::TempDir();

  const check::FuzzOutcome outcome = check::fuzz_scheduler(options);
  EXPECT_EQ(outcome.iterations_run, options.iterations);
  if (outcome.failure) {
    const check::FuzzFailure& f = *outcome.failure;
    FAIL() << "fuzz failure at iteration " << f.iteration << " (scenario seed "
           << f.scenario_seed << ", policy "
           << (f.policy.empty() ? std::string("<default>") : f.policy)
           << ") in phase " << f.phase << ":\n"
           << f.report.to_string() << "repro: "
           << (f.repro_path.empty() ? std::string("<not written>")
                                    : f.repro_path);
  }
}

// ---------------------------------------------------------------------------
// Exhaustive differential grid over all enumerable small instances.

enum class Topology { kLinear, kStar };
enum class Shape { kChain2, kChain3, kChain4, kDiamond };

Network make_network(Topology topology, std::size_t n) {
  Network net(ResourceSchema::cpu_only());
  std::vector<NcpId> ncps;
  for (std::size_t j = 0; j < n; ++j)
    ncps.push_back(net.add_ncp("n" + std::to_string(j),
                               ResourceVector::scalar(6.0 + 1.0 * j)));
  for (std::size_t j = 1; j < n; ++j) {
    const NcpId from = topology == Topology::kLinear ? ncps[j - 1] : ncps[0];
    net.add_link("l" + std::to_string(j), from, ncps[j], 10.0 + 2.0 * j);
  }
  return net;
}

std::shared_ptr<TaskGraph> make_graph(Shape shape) {
  TaskGraph g(ResourceSchema::cpu_only());
  auto ct = [&](std::size_t i) {
    return g.add_ct("c" + std::to_string(i),
                    ResourceVector::scalar(1.0 + 0.5 * i));
  };
  auto tt = [&](std::size_t k, CtId a, CtId b) {
    g.add_tt("t" + std::to_string(k), 2.0 + 1.0 * k, a, b);
  };
  switch (shape) {
    case Shape::kChain2: {
      const CtId a = ct(0), b = ct(1);
      tt(0, a, b);
      break;
    }
    case Shape::kChain3: {
      const CtId a = ct(0), b = ct(1), c = ct(2);
      tt(0, a, b);
      tt(1, b, c);
      break;
    }
    case Shape::kChain4: {
      const CtId a = ct(0), b = ct(1), c = ct(2), d = ct(3);
      tt(0, a, b);
      tt(1, b, c);
      tt(2, c, d);
      break;
    }
    case Shape::kDiamond: {
      const CtId a = ct(0), b = ct(1), c = ct(2), d = ct(3);
      tt(0, a, b);
      tt(1, a, c);
      tt(2, b, d);
      tt(3, c, d);
      break;
    }
  }
  g.finalize();
  return std::make_shared<TaskGraph>(std::move(g));
}

TEST(InvariantsFuzz, ExhaustiveDifferentialGrid) {
  const SparcleAssigner sparcle_assigner;
  std::size_t instances = 0;
  for (Topology topology : {Topology::kLinear, Topology::kStar}) {
    for (std::size_t n : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
      const Network net = make_network(topology, n);
      ASSERT_TRUE(check::unique_route_topology(net));
      for (Shape shape :
           {Shape::kChain2, Shape::kChain3, Shape::kChain4, Shape::kDiamond}) {
        const std::shared_ptr<TaskGraph> graph = make_graph(shape);
        const CtId source = graph->sources().front();
        const CtId sink = graph->sinks().front();
        for (std::size_t src_pin = 0; src_pin < n; ++src_pin) {
          for (std::size_t sink_pin = 0; sink_pin < n; ++sink_pin) {
            AssignmentProblem problem;
            problem.net = &net;
            problem.graph = graph.get();
            problem.capacities = CapacitySnapshot(net);
            problem.pinned = {{source, static_cast<NcpId>(src_pin)},
                              {sink, static_cast<NcpId>(sink_pin)}};
            ASSERT_TRUE(check::exhaustively_enumerable(problem));
            const std::string tag =
                "topology=" + std::to_string(static_cast<int>(topology)) +
                " n=" + std::to_string(n) +
                " shape=" + std::to_string(static_cast<int>(shape)) +
                " pins=" + std::to_string(src_pin) + "," +
                std::to_string(sink_pin);

            const check::DifferentialReport d =
                check::differential_vs_exhaustive(problem, sparcle_assigner);
            EXPECT_TRUE(d.report.ok())
                << tag << "\n" << d.report.to_string();
            EXPECT_TRUE(d.optimal_feasible) << tag;
            EXPECT_TRUE(d.heuristic_feasible) << tag;

            const check::CheckReport mono =
                check::oracle_capacity_monotonicity(problem);
            EXPECT_TRUE(mono.ok()) << tag << "\n" << mono.to_string();

            const check::CheckReport scaled =
                check::oracle_scaling(problem, sparcle_assigner, 2.0);
            EXPECT_TRUE(scaled.ok()) << tag << "\n" << scaled.to_string();
            ++instances;
          }
        }
      }
    }
  }
  // 2 topologies x (4 + 9 + 16) pin pairs x 4 shapes.
  EXPECT_EQ(instances, 232u);
}

}  // namespace
}  // namespace sparcle
