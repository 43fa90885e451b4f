/// \file bench_micro_scaling.cpp
/// Google-benchmark microbenchmarks: the polynomial runtime claims of
/// Theorem 2 (Algorithm 2 in network and task-graph size) plus the cost of
/// the widest-path routine, the exact availability analysis, and the
/// proportional-fairness solve, alone and inside the scheduler's BE
/// re-solve.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "core/availability.hpp"
#include "core/fairness.hpp"
#include "core/provisioning.hpp"
#include "core/scheduler.hpp"
#include "core/sparcle_assigner.hpp"
#include "core/widest_path.hpp"
#include "workload/arrivals.hpp"
#include "workload/scenarios.hpp"

using namespace sparcle;
using namespace sparcle::workload;

namespace {

Scenario scenario_with(std::size_t ncps, std::size_t middle_cts, int seed) {
  Rng rng(seed);
  ScenarioSpec spec;
  spec.topology = TopologyKind::kFull;
  spec.graph = GraphKind::kLinear;
  spec.bottleneck = BottleneckCase::kBalanced;
  spec.ncps = ncps;
  spec.middle_cts = middle_cts;
  return make_scenario(spec, rng);
}

void BM_SparcleAssignNetworkSize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Scenario sc = scenario_with(n, 6, 1);
  const AssignmentProblem p = sc.problem();
  const SparcleAssigner assigner;
  for (auto _ : state) benchmark::DoNotOptimize(assigner.assign(p));
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SparcleAssignNetworkSize)
    ->RangeMultiplier(2)
    ->Range(4, 32)
    ->Complexity();

void BM_SparcleAssignTaskGraphSize(benchmark::State& state) {
  const auto c = static_cast<std::size_t>(state.range(0));
  const Scenario sc = scenario_with(8, c, 1);
  const AssignmentProblem p = sc.problem();
  const SparcleAssigner assigner;
  for (auto _ : state) benchmark::DoNotOptimize(assigner.assign(p));
  state.SetComplexityN(static_cast<std::int64_t>(c));
}
BENCHMARK(BM_SparcleAssignTaskGraphSize)
    ->RangeMultiplier(2)
    ->Range(2, 16)
    ->Complexity();

/// Admission-sized assignment on the soak topology (16-NCP stars would
/// not reach the site sizes that matter, and a full mesh at 1024 NCPs has
/// ~524k links): one steady arrival assigned on an empty
/// soak_site(n / 64, 64).
void BM_SparcleAssignSoakSite(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(20260808);
  const Network net = soak_site(n / 64, 64, rng);
  ArrivalSpec spec;
  spec.arrivals = 1;
  spec.locality = 0.9;
  ArrivalGenerator gen(net, spec, 20260808);
  Arrival arrival;
  gen.next(arrival);
  AssignmentProblem p;
  p.net = &net;
  p.graph = arrival.app.graph.get();
  p.capacities = CapacitySnapshot(net);
  p.pinned = arrival.app.pinned;
  const SparcleAssigner assigner;
  for (auto _ : state) benchmark::DoNotOptimize(assigner.assign(p));
}
BENCHMARK(BM_SparcleAssignSoakSite)->Arg(128)->Arg(256)->Arg(1024);

/// The site-sized fixed cost of one admission's provisioning: one
/// provision_paths call (first path only, as for a BE app at availability
/// 0) for a steady arrival on an empty soak_site(n / 64, 64), with every
/// CT but one pinned to its host in the arrival's own assignment.  The
/// search places one CT, so what grows with n is the residual copies,
/// the load maps and that CT's widest-width trees over the whole site.
void BM_ProvisionPathsSoakSite(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(20260808);
  const Network net = soak_site(n / 64, 64, rng);
  ArrivalSpec spec;
  spec.arrivals = 1;
  spec.locality = 0.9;
  ArrivalGenerator gen(net, spec, 20260808);
  Arrival arrival;
  gen.next(arrival);
  const TaskGraph& graph = *arrival.app.graph;
  const CapacitySnapshot empty(net);
  const SparcleAssigner assigner;
  AssignmentProblem p;
  p.net = &net;
  p.graph = &graph;
  p.capacities = empty;
  p.pinned = arrival.app.pinned;
  const AssignmentResult full = assigner.assign(p);
  if (!full.feasible) state.SkipWithError("arrival does not fit");
  // Pin every CT to its host, then free the first one the arrival left free.
  std::map<CtId, NcpId> pinned;
  for (CtId i = 0; i < static_cast<CtId>(graph.ct_count()); ++i)
    pinned[i] = full.placement.ct_host(i);
  for (CtId i = 0; i < static_cast<CtId>(graph.ct_count()); ++i)
    if (!arrival.app.pinned.contains(i)) {
      pinned.erase(i);
      break;
    }
  const ProvisioningOptions options;
  const StopPredicate first_path = [](const std::vector<PathInfo>&) {
    return true;
  };
  for (auto _ : state)
    benchmark::DoNotOptimize(provision_paths(net, graph, pinned, empty,
                                             assigner, options, first_path));
}
BENCHMARK(BM_ProvisionPathsSoakSite)->Arg(128)->Arg(2048);

void BM_WidestPath(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Scenario sc = scenario_with(n, 2, 1);
  const auto weight = [&](LinkId l) { return sc.net.link(l).bandwidth; };
  WidestPathWorkspace ws;
  for (auto _ : state)
    benchmark::DoNotOptimize(widest_path_buffered(
        sc.net, 0, static_cast<NcpId>(n - 1), weight, ws));
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_WidestPath)->RangeMultiplier(2)->Range(8, 64)->Complexity();

void BM_AvailabilityExact(benchmark::State& state) {
  const auto paths_count = static_cast<std::size_t>(state.range(0));
  Network net(ResourceSchema::cpu_only());
  for (int j = 0; j < 16; ++j)
    net.add_ncp("n" + std::to_string(j), ResourceVector::scalar(1), 0.05);
  std::vector<std::vector<ElementKey>> paths;
  for (std::size_t p = 0; p < paths_count; ++p)
    paths.push_back({ElementKey::ncp(static_cast<NcpId>(p)),
                     ElementKey::ncp(static_cast<NcpId>((p + 1) % 16)),
                     ElementKey::ncp(static_cast<NcpId>((p + 5) % 16))});
  const std::vector<double> rates(paths_count, 1.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        min_rate_availability(net, paths, rates, 2.0));
}
BENCHMARK(BM_AvailabilityExact)->DenseRange(2, 10, 2);

void BM_FairnessSolve(benchmark::State& state) {
  const auto apps = static_cast<std::size_t>(state.range(0));
  PfProblem p;
  p.capacity.assign(apps + 1, 100.0);
  for (std::size_t a = 0; a < apps; ++a) {
    PfProblem::Column col;
    col.entries = {{0, 1.0}, {a + 1, 2.0}};
    p.columns.push_back(col);
    p.var_app.push_back(a);
    p.app_priority.push_back(1.0 + static_cast<double>(a % 3));
  }
  for (auto _ : state) benchmark::DoNotOptimize(solve_weighted_pf(p));
}
BENCHMARK(BM_FairnessSolve)->RangeMultiplier(2)->Range(2, 128);

// Roughly the size of the BE re-solves with ~96 apps placed on 64 NCPs:
// one path per app, each loading 6 rows drawn uniformly from a 120-row
// pool.  Real pf96 problems are regional (an app's paths stay mostly
// inside its home region), so their Hessian is far sparser than this
// one's; BM_BeResolveSoakSite below solves the scheduler's own problems.
void BM_FairnessSolvePf96Shape(benchmark::State& state) {
  const auto apps = static_cast<std::size_t>(state.range(0));
  constexpr int kRows = 120;
  Rng rng(7);
  PfProblem p;
  p.capacity.assign(kRows, 100.0);
  for (std::size_t a = 0; a < apps; ++a) {
    PfProblem::Column col;
    std::vector<char> used(kRows, 0);
    while (col.entries.size() < 6) {
      const auto row = static_cast<std::size_t>(rng.uniform_int(0, kRows - 1));
      if (used[row]) continue;
      used[row] = 1;
      col.entries.emplace_back(row, rng.uniform(0.5, 5.0));
    }
    p.columns.push_back(std::move(col));
    p.var_app.push_back(a);
    p.app_priority.push_back(1.0 + static_cast<double>(a % 3));
  }
  for (auto _ : state) benchmark::DoNotOptimize(solve_weighted_pf(p));
}
BENCHMARK(BM_FairnessSolvePf96Shape)->Arg(32)->Arg(64)->Arg(96)->Arg(128);

/// One paced admission batch of the `pf96` benchmark workload on the
/// scheduler's own PF problems: a Scheduler with W steady arrivals in
/// flight (locality 0.9, GR fraction 0.1) removes the oldest and submits
/// the next, so the batch ends in one BE re-solve over ~W placed apps.
/// W = 96 runs on pf96's 64-NCP site, W = 400 and W = 1000 on 256 NCPs.
void BM_BeResolveSoakSite(benchmark::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  Rng site_rng(42);
  Scheduler sched(soak_site(window > 96 ? 16 : 4, 16, site_rng));
  ArrivalSpec spec;
  spec.arrivals = 1000000;
  spec.horizon = static_cast<double>(spec.arrivals);
  spec.gr_fraction = 0.1;
  spec.locality = 0.9;
  ArrivalGenerator gen(sched.network(), spec, 20260808);
  std::deque<std::string> in_flight;
  Arrival arrival;
  sched.begin_batch();
  while (in_flight.size() < window && gen.next(arrival)) {
    sched.submit(arrival.app);
    in_flight.push_back(arrival.app.name);
  }
  sched.end_batch();
  for (auto _ : state) {
    sched.begin_batch();
    sched.remove(in_flight.front());
    in_flight.pop_front();
    gen.next(arrival);
    sched.submit(arrival.app);
    in_flight.push_back(arrival.app.name);
    benchmark::DoNotOptimize(sched.end_batch());
  }
}
BENCHMARK(BM_BeResolveSoakSite)->Arg(96)->Arg(400)->Arg(1000);

}  // namespace

// Custom main so the assignment speedup can be *tracked*: with
// SPARCLE_BENCH_JSON=<path> in the environment the full google-benchmark
// JSON report is written there in addition to the console output (it
// simply injects --benchmark_out flags, so explicit flags still win).
// tools/bench_assign.sh uses this to refresh BENCH_assign.json.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag, fmt_flag = "--benchmark_out_format=json";
  if (const char* json_path = std::getenv("SPARCLE_BENCH_JSON")) {
    out_flag = std::string("--benchmark_out=") + json_path;
    // Insert before user flags so an explicit --benchmark_out overrides.
    args.insert(args.begin() + 1, out_flag.data());
    args.insert(args.begin() + 2, fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
