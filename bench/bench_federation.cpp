/// \file bench_federation.cpp
/// Federated-placement scaling: aggregate admission throughput on a
/// 2048-NCP multi-region soak site as a function of the regional shard
/// count (1 -> 16).  One shard is the single-global-scheduler baseline —
/// every admission serializes through one proportional-fair re-solve over
/// the whole site; sharding runs the unchanged per-shard pipeline
/// concurrently on 1/N-size sub-networks and pays the cross-shard
/// reserve round only for the locality-tail arrivals whose pins span
/// shards (docs/federation.md).
///
/// The workload is a deterministic workload::ArrivalGenerator stream
/// (steady pattern, locality 0.9, 10% guaranteed-rate) replayed
/// identically against every shard count.  The run is split into epochs;
/// after each epoch the timer stops and the federation conservation check
/// (per-shard invariant checker + cross-shard reservation accounting)
/// must come back clean — a throughput number from a corrupted scheduler
/// state is worthless.
///
/// With SPARCLE_BENCH_JSON=<path> set, a flat JSON results map is written
/// for tools/bench_federation.sh, which appends a labeled entry to the
/// checked-in BENCH_federation.json trajectory and gates the >= 5x
/// speedup at 8 shards.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "federation/check.hpp"
#include "federation/federation.hpp"
#include "workload/arrivals.hpp"
#include "workload/rng.hpp"

using namespace sparcle;
using bench::fmt;
using bench::Table;

namespace {

constexpr std::size_t kRegions = 32;
constexpr std::size_t kNcpsPerRegion = 64;  // 32 x 64 = 2048 NCPs
constexpr std::size_t kEpochs = 4;

/// Arrival count, overridable for longer runs (SPARCLE_BENCH_ARRIVALS);
/// the checked-in gate uses the default.  64 keeps the whole axis under
/// ~5 minutes — the single-scheduler baseline pays seconds *per
/// admission* at 2048 NCPs, and that deliberately-slow row dominates
/// the bench's wall time (which is the point being measured).
std::size_t arrival_count() {
  if (const char* env = std::getenv("SPARCLE_BENCH_ARRIVALS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 64;
}

/// The replayed arrival stream: materialized once so every shard count
/// admits the identical application sequence.
std::vector<workload::Arrival> make_stream(const Network& net) {
  workload::ArrivalSpec spec;
  spec.pattern = workload::ArrivalPattern::kSteady;
  spec.arrivals = arrival_count();
  spec.horizon = 4096.0;
  spec.gr_fraction = 0.10;
  spec.locality = 0.9;  // most arrivals are shard-local; the tail crosses
  workload::ArrivalGenerator gen(net, spec, 20260808);
  std::vector<workload::Arrival> stream;
  stream.reserve(spec.arrivals);
  workload::Arrival a;
  while (gen.next(a)) stream.push_back(a);
  return stream;
}

struct AxisResult {
  double wall_s{0.0};        ///< timed submit+drain seconds, checks excluded
  std::size_t admitted{0};
  std::size_t rejected{0};
  std::size_t cross_admitted{0};
  std::size_t epochs_checked{0};
  std::size_t epochs_clean{0};
  double admissions_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(admitted) / wall_s : 0.0;
  }
  bool checks_ok() const { return epochs_clean == epochs_checked; }
};

AxisResult run_axis(const Network& net,
                    const std::vector<workload::Arrival>& stream,
                    std::size_t shards) {
  federation::FederationOptions options;
  options.shards = shards;
  options.service.queue_capacity = stream.size() + 16;
  federation::FederatedService fed(net, options);

  AxisResult result;
  const std::size_t per_epoch = (stream.size() + kEpochs - 1) / kEpochs;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    const std::size_t lo = e * per_epoch;
    const std::size_t hi = std::min(stream.size(), lo + per_epoch);
    if (lo >= hi) break;

    // Timed section: open-loop burst of the epoch's arrivals, drained.
    std::vector<std::future<service::ServiceResult>> futures;
    futures.reserve(hi - lo);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = lo; i < hi; ++i)
      futures.push_back(fed.submit(stream[i].app));
    for (auto& f : futures)
      ++(f.get().ok() ? result.admitted : result.rejected);
    fed.drain();
    result.wall_s += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();

    // Untimed: the epoch's state must pass the conservation check (which
    // itself runs the per-shard invariant checker on every shard).
    std::fprintf(stderr, "shards=%zu epoch %zu/%zu: %.1fs cumulative\n",
                 shards, e + 1, kEpochs, result.wall_s);
    ++result.epochs_checked;
    const federation::ConservationReport report =
        federation::check_federation(fed);
    if (report.ok()) {
      ++result.epochs_clean;
    } else {
      std::fprintf(stderr, "shards=%zu epoch %zu: %s\n", shards, e,
                   report.to_string().c_str());
    }
  }

  const service::ServiceStats stats = fed.stats();
  const auto it = stats.metrics.find("federation.cross.admitted");
  result.cross_admitted =
      it == stats.metrics.end() ? 0 : static_cast<std::size_t>(it->second);
  fed.stop();
  return result;
}

}  // namespace

int main() {
  Rng rng(42);
  const Network net = workload::soak_site(kRegions, kNcpsPerRegion, rng);
  const std::vector<workload::Arrival> stream = make_stream(net);
  std::map<std::string, double> json;

  bench::section("federated placement: " + std::to_string(net.ncp_count()) +
                 "-NCP site, " + std::to_string(stream.size()) +
                 " arrivals (locality 0.9), shard axis 1 -> 16");
  bench::note(
      "shards=1 is the single global scheduler every admission serializes\n"
      "through; each row replays the identical arrival stream.  Epoch\n"
      "checks run the per-shard invariant checker plus the federation\n"
      "conservation check with the timer stopped.");

  Table table({"shards", "admissions/s", "speedup", "admitted", "rejected",
               "cross", "checks"});
  double base = 0.0;
  bool all_clean = true;
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8},
        std::size_t{16}}) {
    const AxisResult r = run_axis(net, stream, shards);
    if (shards == 1) base = r.admissions_per_s();
    const double speedup = base > 0.0 ? r.admissions_per_s() / base : 0.0;
    all_clean = all_clean && r.checks_ok();
    table.add_row({std::to_string(shards), fmt(r.admissions_per_s(), 0),
                   fmt(speedup, 2), std::to_string(r.admitted),
                   std::to_string(r.rejected),
                   std::to_string(r.cross_admitted),
                   r.checks_ok() ? std::to_string(r.epochs_clean) + "/" +
                                       std::to_string(r.epochs_checked)
                                 : "FAIL"});
    const std::string key = "shards" + std::to_string(shards);
    json["admissions_per_s/" + key] = r.admissions_per_s();
    json["speedup/" + key] = speedup;
    json["admitted/" + key] = static_cast<double>(r.admitted);
    json["rejected/" + key] = static_cast<double>(r.rejected);
    json["cross_admitted/" + key] = static_cast<double>(r.cross_admitted);
    json["checks_clean/" + key] = r.checks_ok() ? 1.0 : 0.0;
  }
  table.print();
  json["ncps"] = static_cast<double>(net.ncp_count());
  json["arrivals"] = static_cast<double>(stream.size());
  json["all_checks_clean"] = all_clean ? 1.0 : 0.0;

  if (const char* path = std::getenv("SPARCLE_BENCH_JSON")) {
    std::FILE* out = std::fopen(path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
    std::fprintf(out, "{\n  \"benchmarks\": {\n");
    bool first = true;
    for (const auto& [key, value] : json) {
      std::fprintf(out, "%s    \"%s\": %.2f", first ? "" : ",\n", key.c_str(),
                   value);
      first = false;
    }
    std::fprintf(out, "\n  }\n}\n");
    std::fclose(out);
    std::printf("\nresults written to %s\n", path);
  }
  return all_clean ? 0 : 1;
}
