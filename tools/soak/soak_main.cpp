/// \file soak_main.cpp
/// `sparcle_soak` — the nightly long-horizon soak runner (docs/policies.md,
/// tools/soak.sh).  Sweeps the scheduling-policy × adversarial-scenario
/// matrix (or one cell via flags) over simulated-day arrival streams and
/// gates each cell in-process:
///
///   * invariant checks must stay clean at every sampled epoch,
///   * RSS drift (warmed-up quarter → end) must stay under
///     SPARCLE_SOAK_MAX_RSS_DRIFT (default 5%),
///   * admitted-fraction drift between arrivals [N/4, 5N/8) and
///     [5N/8, N) must stay under SPARCLE_SOAK_MAX_RATE_DRIFT (default 3%).
///
/// Honors SPARCLE_TEST_SEED (tests/testutil.hpp convention) and
/// SPARCLE_SOAK_ARRIVALS; every failure line carries the seed so any CI
/// hit replays locally with a single variable.  Exit status: 0 clean,
/// 1 gate failure, 2 usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "policy/policy.hpp"
#include "soak/soak.hpp"

using namespace sparcle;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: sparcle_soak [--policy NAME] [--scenario NAME] [--arrivals N]\n"
      "                    [--seed N] [--shards N] [--json PATH]\n"
      "                    [--csv PATH] [--list]\n"
      "  default: every policy x every scenario;\n"
      "  --shards N runs every cell against an N-shard federated site\n"
      "  (federation conservation check at every invariant epoch);\n"
      "  env: SPARCLE_SOAK_ARRIVALS, SPARCLE_TEST_SEED,\n"
      "       SPARCLE_SOAK_MAX_RSS_DRIFT, SPARCLE_SOAK_MAX_RATE_DRIFT\n");
}

double env_double(const char* name, double fallback) {
  const char* env = std::getenv(name);
  return (env && *env) ? std::strtod(env, nullptr) : fallback;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* env = std::getenv(name);
  return (env && *env) ? std::strtoull(env, nullptr, 0) : fallback;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  soak::TournamentOptions options;
  options.arrivals_per_cell =
      static_cast<std::size_t>(env_u64("SPARCLE_SOAK_ARRIVALS", 100000));
  options.seed = env_u64("SPARCLE_TEST_SEED", 1);
  options.invariant_epochs = 4;
  std::string json_path, csv_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--policy") {
      options.policies.push_back(value());
    } else if (arg == "--scenario") {
      options.scenarios.push_back(value());
    } else if (arg == "--arrivals") {
      options.arrivals_per_cell = std::strtoull(value(), nullptr, 0);
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value(), nullptr, 0);
    } else if (arg == "--shards") {
      options.federated_shards = std::strtoull(value(), nullptr, 0);
    } else if (arg == "--json") {
      json_path = value();
    } else if (arg == "--csv") {
      csv_path = value();
    } else if (arg == "--list") {
      std::printf("policies:");
      for (const std::string& p : policy::policy_names())
        std::printf(" %s", p.c_str());
      std::printf("\nscenarios:");
      for (const std::string& s : soak::tournament_scenarios())
        std::printf(" %s", s.c_str());
      std::printf("\n");
      return 0;
    } else {
      usage();
      return 2;
    }
  }

  const double max_rss_drift =
      env_double("SPARCLE_SOAK_MAX_RSS_DRIFT", 0.05);
  const double max_rate_drift =
      env_double("SPARCLE_SOAK_MAX_RATE_DRIFT", 0.03);

  std::printf("sparcle_soak: %zu arrivals/cell, seed %llu "
              "(override with SPARCLE_TEST_SEED)\n",
              options.arrivals_per_cell,
              static_cast<unsigned long long>(options.seed));
  if (options.federated_shards > 0)
    std::printf("sparcle_soak: federated site, %zu shards "
                "(conservation check per invariant epoch)\n",
                options.federated_shards);

  const soak::TournamentReport report = soak::run_tournament(options);
  std::printf("%s", soak::tournament_csv(report).c_str());

  if (!json_path.empty() &&
      !write_file(json_path, soak::tournament_json(report, options)))
    return 2;
  if (!csv_path.empty() &&
      !write_file(csv_path, soak::tournament_csv(report)))
    return 2;

  // Gates.  Every failure line repeats the seed so a nightly hit replays
  // locally with SPARCLE_TEST_SEED=<seed>.  The drift gates need
  // statistics: below 10k arrivals/cell the admission-rate windows are a
  // few hundred samples and binomial noise alone exceeds the budgets, so
  // short (smoke) runs gate only on invariants.
  const bool gate_drift = options.arrivals_per_cell >= 10000;
  if (!gate_drift)
    std::printf("sparcle_soak: %zu arrivals/cell < 10000 — drift gates "
                "reported but not enforced\n",
                options.arrivals_per_cell);
  int failures = 0;
  for (const soak::TournamentCell& cell : report.cells) {
    const soak::SoakResult& r = cell.result;
    const std::string where =
        cell.scenario + " x " + cell.policy + " (seed " +
        std::to_string(r.seed) + ", rerun with SPARCLE_TEST_SEED=" +
        std::to_string(r.seed) + ")";
    for (const std::string& v : r.violations) {
      std::fprintf(stderr, "FAIL %s:\n%s\n", where.c_str(), v.c_str());
      ++failures;
    }
    if (gate_drift && r.rss_drift > max_rss_drift) {
      std::fprintf(stderr,
                   "FAIL %s: RSS drift %.1f%% over the %.1f%% budget\n",
                   where.c_str(), 100.0 * r.rss_drift,
                   100.0 * max_rss_drift);
      ++failures;
    }
    if (gate_drift && r.admit_rate_drift > max_rate_drift) {
      std::fprintf(stderr,
                   "FAIL %s: admission-rate drift %.1f%% over the %.1f%% "
                   "budget\n",
                   where.c_str(), 100.0 * r.admit_rate_drift,
                   100.0 * max_rate_drift);
      ++failures;
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "sparcle_soak: %d gate failure(s)\n", failures);
    return 1;
  }
  std::printf("sparcle_soak: all %zu cells clean\n", report.cells.size());
  return 0;
}
