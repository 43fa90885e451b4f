/// \file bench_service.cpp
/// Load generator for the placement service (src/service): measures
/// sustained admission throughput and enqueue-to-reply latency on a
/// 64-node dispersed site as a function of the scheduler batch size and
/// the number of client threads — plus the wire path itself: closed-loop
/// TCP round trips through the event-loop server in both codecs (NDJSON
/// vs binary frames) and a connection-scaling sweep to 1024 concurrent
/// clients — and a deep-queue case that holds the bounded queue near its
/// 1024 capacity.
///
/// Two drive modes:
///
///   - burst (open loop): every client thread enqueues its whole request
///     list without waiting, then the run drains.  This is the regime
///     batching is built for — the queue stays deep, so each weighted-PF
///     re-solve (the per-admission cost that grows with the number of
///     placed BE apps) is amortized over up to `max_batch` admissions.
///     One burst row takes tens of milliseconds, too short for a 3% gate,
///     so the burst axis runs kBurstRuns times, each row on a fresh
///     service; a row reports the median of its runs, and a speedup the
///     median of the per-run ratios to that run's batch=1 row.
///   - closed loop: every client waits for each future before sending the
///     next request, so queue depth ≤ thread count.  This bounds the
///     latency a lone interactive client sees.
///
/// With SPARCLE_BENCH_JSON=<path> set, a flat JSON results map is written
/// for tools/bench_service.sh, which appends a labeled entry to the
/// checked-in BENCH_service.json trajectory and gates regressions.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "service/client.hpp"
#include "service/event_server.hpp"
#include "service/scheduler_service.hpp"

using namespace sparcle;
using bench::fmt;
using bench::Table;

namespace {

/// 64-NCP dispersed site: src/dst anchors plus a two-tier relay pool
/// (16 capable relays, 46 weak edge nodes) — the bench_churn topology at
/// the scenario size the acceptance gate names.
Network make_site64() {
  constexpr int kBig = 16, kSmall = 46;
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("src", ResourceVector::scalar(1.0));
  net.add_ncp("dst", ResourceVector::scalar(1.0));
  for (int r = 0; r < kBig + kSmall; ++r)
    net.add_ncp("relay" + std::to_string(r),
                ResourceVector::scalar(r < kBig ? 40.0 : 4.0));
  for (int r = 0; r < kBig + kSmall; ++r) {
    net.add_link("s" + std::to_string(r), 0, 2 + r, 1000.0);
    net.add_link("d" + std::to_string(r), 2 + r, 1, 1000.0);
  }
  return net;
}

/// Deterministic arrival mix: 3-CT chains anchored src->dst, mostly BE
/// with varied priorities, every 8th GR with a small guarantee.
std::vector<Application> make_arrivals(std::size_t n) {
  auto g = std::make_shared<TaskGraph>(ResourceSchema::cpu_only());
  const CtId s = g->add_ct("source", ResourceVector::scalar(0));
  const CtId m = g->add_ct("mid", ResourceVector::scalar(1.0));
  const CtId t = g->add_ct("sink", ResourceVector::scalar(0));
  g->add_tt("sm", 1.0, s, m);
  g->add_tt("mt", 1.0, m, t);
  g->finalize();
  std::vector<Application> apps;
  apps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Application app;
    app.name = "app" + std::to_string(i);
    app.graph = g;
    app.qoe = (i % 8 == 7)
                  ? QoeSpec::guaranteed_rate(0.1 + 0.05 * (i % 3), 0.0)
                  : QoeSpec::best_effort(1.0 + static_cast<double>(i % 4));
    app.pinned = {{0, 0}, {2, 1}};
    apps.push_back(std::move(app));
  }
  return apps;
}

/// Runs of the burst axis; the gates read the medians.
constexpr std::size_t kBurstRuns = 5;
static_assert(kBurstRuns % 2 == 1, "a median of kBurstRuns values is one");

/// The middle one of an odd number of values.
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

struct RunResult {
  double admissions_per_s{0.0};  ///< completed requests / wall second
  double p50_us{0.0};
  double p99_us{0.0};
  // Per-stage breakdown (RequestTimeline): where enqueue-to-reply time
  // actually goes — queue wait, the request's own scheduler call, and the
  // batch's shared PF solve.
  double queue_p50_us{0.0}, queue_p99_us{0.0};
  double apply_p50_us{0.0}, apply_p99_us{0.0};
  double solve_p50_us{0.0}, solve_p99_us{0.0};
  std::size_t admitted{0};
  std::size_t rejected{0};
  std::uint64_t batches{0};
  std::uint64_t resolves_saved{0};
};

/// One configuration: fresh service, `threads` clients submitting
/// `arrivals` split round-robin, burst or closed-loop.
RunResult run_config(const Network& net, const std::vector<Application>& arrivals,
                     std::size_t max_batch, std::size_t threads, bool burst) {
  service::ServiceOptions options;
  options.max_batch = max_batch;
  options.queue_capacity = arrivals.size() + threads;  // never backpressure
  service::SchedulerService svc(net, SchedulerOptions{}, options);

  std::vector<std::vector<double>> latencies(threads), queue_stage(threads),
      apply_stage(threads), solve_stage(threads);
  std::vector<std::size_t> admitted(threads, 0), rejected(threads, 0);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      auto settle = [&](service::ServiceResult r) {
        latencies[t].push_back(r.latency_us);
        queue_stage[t].push_back(r.timeline.queue_us);
        apply_stage[t].push_back(r.timeline.apply_us);
        solve_stage[t].push_back(r.timeline.solve_us);
        ++(r.ok() ? admitted[t] : rejected[t]);
      };
      std::vector<std::future<service::ServiceResult>> pending;
      for (std::size_t i = t; i < arrivals.size(); i += threads) {
        auto future = svc.submit(arrivals[i]);
        if (burst) {
          pending.push_back(std::move(future));
          continue;
        }
        settle(future.get());
      }
      for (auto& future : pending) settle(future.get());
    });
  }
  for (auto& c : clients) c.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  RunResult result;
  std::vector<double> all, queue_all, apply_all, solve_all;
  for (std::size_t t = 0; t < threads; ++t) {
    all.insert(all.end(), latencies[t].begin(), latencies[t].end());
    queue_all.insert(queue_all.end(), queue_stage[t].begin(),
                     queue_stage[t].end());
    apply_all.insert(apply_all.end(), apply_stage[t].begin(),
                     apply_stage[t].end());
    solve_all.insert(solve_all.end(), solve_stage[t].begin(),
                     solve_stage[t].end());
    result.admitted += admitted[t];
    result.rejected += rejected[t];
  }
  result.admissions_per_s = static_cast<double>(all.size()) / wall_s;
  result.p50_us = percentile(all, 0.50);
  result.p99_us = percentile(all, 0.99);
  result.queue_p50_us = percentile(queue_all, 0.50);
  result.queue_p99_us = percentile(queue_all, 0.99);
  result.apply_p50_us = percentile(apply_all, 0.50);
  result.apply_p99_us = percentile(apply_all, 0.99);
  result.solve_p50_us = percentile(solve_all, 0.50);
  result.solve_p99_us = percentile(solve_all, 0.99);
  const service::ServiceStats stats = svc.stats();
  result.batches = stats.batches;
  result.resolves_saved = stats.resolves_saved;
  svc.stop();
  return result;
}

struct DeepQueueResult {
  double admissions_per_s{0.0};  ///< answered requests / wall second
  double enqueue_p50_us{0.0};    ///< one accepted submit_async call
  double enqueue_p99_us{0.0};
  std::size_t admitted{0};
  std::uint64_t batches{0};
};

/// Deep queue: `producers` threads keep `capacity` requests in flight
/// (enqueued, not yet answered) — each waits for a free slot, then
/// enqueues — so the queue stays within one batch of `capacity` while
/// the scheduling thread pops `max_batch` at a time.  The enqueue time
/// is the wall time of a producer's submit_async call, i.e. its wait for
/// the queue lock plus the insert.  Every arrival is a small-guarantee
/// GR chain: the site holds them all and no PF re-solve runs, so the
/// per-batch admission cost stays flat and queue handling shows.
DeepQueueResult run_deep_queue(const Network& net, std::size_t total,
                               std::size_t capacity, std::size_t max_batch,
                               std::size_t producers) {
  service::ServiceOptions options;
  options.max_batch = max_batch;
  options.queue_capacity = capacity;
  service::SchedulerService svc(net, SchedulerOptions{}, options);
  Application tmpl = make_arrivals(1).front();
  tmpl.qoe = QoeSpec::guaranteed_rate(0.01, 0.0);

  std::atomic<std::size_t> in_flight{0}, next{0}, admitted{0};
  std::vector<std::vector<double>> enqueue_us(producers);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (std::size_t i = next++; i < total; i = next++) {
        Application app = tmpl;
        app.name = "dq" + std::to_string(i);
        while (in_flight.fetch_add(1) >= capacity) {
          in_flight.fetch_sub(1);
          std::this_thread::yield();
        }
        const auto t0 = std::chrono::steady_clock::now();
        svc.submit_async(std::move(app), [&](service::ServiceResult r) {
          if (r.ok()) ++admitted;
          in_flight.fetch_sub(1);
        });
        enqueue_us[p].push_back(std::chrono::duration<double, std::micro>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count());
      }
    });
  }
  for (auto& t : threads) t.join();
  svc.drain();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::vector<double> all;
  for (const auto& v : enqueue_us) all.insert(all.end(), v.begin(), v.end());
  DeepQueueResult result;
  result.admissions_per_s = static_cast<double>(total) / wall_s;
  result.enqueue_p50_us = percentile(all, 0.50);
  result.enqueue_p99_us = percentile(all, 0.99);
  result.admitted = admitted;
  result.batches = svc.stats().batches;
  svc.stop();
  return result;
}

/// One wire-path configuration: `clients` closed-loop TCP clients, each
/// its own connection in `codec`, each driving `ops_per_client` round
/// trips of `verb` against an already-running event server.  Latency is
/// whole-round-trip (encode, kernel, event loop, decode).
struct WireResult {
  double rps{0.0};
  double p50_us{0.0};
  double p99_us{0.0};
  std::size_t ops{0};
  std::size_t errors{0};
};

WireResult run_wire(std::uint16_t port, service::Codec codec,
                    std::size_t clients, std::size_t ops_per_client,
                    const std::string& verb) {
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<std::size_t> errors{0};
  std::mutex mu;
  std::condition_variable cv;
  std::size_t ready = 0;
  bool go = false;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        service::TcpClient client("127.0.0.1", port, codec);
        {
          std::unique_lock<std::mutex> lock(mu);
          ++ready;
          cv.notify_all();
          cv.wait(lock, [&] { return go; });
        }
        const std::map<std::string, std::string> request{{"verb", verb}};
        latencies[c].reserve(ops_per_client);
        for (std::size_t i = 0; i < ops_per_client; ++i) {
          const auto t0 = std::chrono::steady_clock::now();
          const auto reply = client.call(request);
          latencies[c].push_back(
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
          const auto it = reply.find("status");
          if (it == reply.end() || it->second != "ok") ++errors;
        }
      } catch (const std::exception&) {
        ++errors;
      }
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return ready == clients; });
  }
  const auto start = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu);
    go = true;
    cv.notify_all();
  }
  for (std::thread& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  WireResult result;
  std::vector<double> all;
  for (const std::vector<double>& lat : latencies)
    all.insert(all.end(), lat.begin(), lat.end());
  result.ops = all.size();
  result.errors = errors.load();
  result.rps = static_cast<double>(all.size()) / wall_s;
  result.p50_us = percentile(all, 0.50);
  result.p99_us = percentile(all, 0.99);
  return result;
}

}  // namespace

int main() {
  const Network net = make_site64();
  const std::vector<Application> arrivals = make_arrivals(192);
  std::map<std::string, double> json;

  bench::section("burst (open loop): 192 arrivals, 8 client threads, "
                 "64-NCP site, " + std::to_string(kBurstRuns) + " runs");
  bench::note(
      "Each client enqueues its share without waiting; deep queues let the\n"
      "scheduling thread amortize one weighted-PF re-solve over max_batch\n"
      "admissions.  batch=1 is the classic per-call pipeline.  Each row\n"
      "runs on a fresh service and reports the median of its runs; the\n"
      "speedup is the median of the per-run ratios (range in brackets).");
  Table burst_table({"max_batch", "admissions/s", "speedup", "p50 us",
                     "p99 us", "queue p99", "solve p99", "admitted",
                     "batches", "resolves saved"});
  const std::vector<std::size_t> batch_axis = {1, 4, 16, 64};
  // burst[k][r]: row k of run r.
  std::vector<std::vector<RunResult>> burst(batch_axis.size());
  for (std::size_t r = 0; r < kBurstRuns; ++r)
    for (std::size_t k = 0; k < batch_axis.size(); ++k)
      burst[k].push_back(
          run_config(net, arrivals, batch_axis[k], 8, /*burst=*/true));
  for (std::size_t k = 0; k < batch_axis.size(); ++k) {
    const auto med = [&](auto field) {
      std::vector<double> v;
      for (const RunResult& x : burst[k])
        v.push_back(static_cast<double>(x.*field));
      return median(std::move(v));
    };
    std::vector<double> speedup;
    for (std::size_t r = 0; r < kBurstRuns; ++r)
      speedup.push_back(burst[k][r].admissions_per_s /
                        burst[0][r].admissions_per_s);
    const auto [lo, hi] = std::minmax_element(speedup.begin(), speedup.end());
    burst_table.add_row(
        {std::to_string(batch_axis[k]),
         fmt(med(&RunResult::admissions_per_s), 0),
         fmt(median(speedup), 2) + " [" + fmt(*lo, 2) + ", " + fmt(*hi, 2) +
             "]",
         fmt(med(&RunResult::p50_us), 0), fmt(med(&RunResult::p99_us), 0),
         fmt(med(&RunResult::queue_p99_us), 0),
         fmt(med(&RunResult::solve_p99_us), 0),
         fmt(med(&RunResult::admitted), 0), fmt(med(&RunResult::batches), 0),
         fmt(med(&RunResult::resolves_saved), 0)});
    const std::string key = "batch" + std::to_string(batch_axis[k]);
    json["admissions_per_s/" + key] = med(&RunResult::admissions_per_s);
    json["speedup/" + key] = median(speedup);
    json["p50_us/" + key] = med(&RunResult::p50_us);
    json["p99_us/" + key] = med(&RunResult::p99_us);
    json["stage_queue_p50_us/" + key] = med(&RunResult::queue_p50_us);
    json["stage_queue_p99_us/" + key] = med(&RunResult::queue_p99_us);
    json["stage_apply_p50_us/" + key] = med(&RunResult::apply_p50_us);
    json["stage_apply_p99_us/" + key] = med(&RunResult::apply_p99_us);
    json["stage_solve_p50_us/" + key] = med(&RunResult::solve_p50_us);
    json["stage_solve_p99_us/" + key] = med(&RunResult::solve_p99_us);
  }
  json["burst_runs"] = static_cast<double>(kBurstRuns);
  burst_table.print();

  bench::section("closed loop: 192 arrivals, max_batch=16");
  bench::note(
      "Clients wait for each reply before the next request, so queue depth\n"
      "is bounded by the thread count: the single-client row is the\n"
      "interactive-latency floor, the 8-client row shows batching picking\n"
      "up as concurrency rises.");
  Table closed_table({"client threads", "admissions/s", "p50 us", "p99 us",
                      "batches", "resolves saved"});
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const RunResult r = run_config(net, arrivals, 16, threads,
                                   /*burst=*/false);
    closed_table.add_row({std::to_string(threads), fmt(r.admissions_per_s, 0),
                          fmt(r.p50_us, 0), fmt(r.p99_us, 0),
                          std::to_string(r.batches),
                          std::to_string(r.resolves_saved)});
    const std::string key = "threads" + std::to_string(threads);
    json["closed_admissions_per_s/" + key] = r.admissions_per_s;
    json["closed_p50_us/" + key] = r.p50_us;
    json["closed_p99_us/" + key] = r.p99_us;
  }
  closed_table.print();

  bench::section("deep queue: 8192 GR arrivals, 2 producers, capacity "
                 "1024, max_batch=16");
  bench::note(
      "Producers refill every freed slot, so ~1024 requests wait while the\n"
      "scheduling thread pops batches of 16: what a pop costs at depth, and\n"
      "how long a producer's enqueue call waits for the queue lock.");
  {
    const DeepQueueResult r = run_deep_queue(net, 8192, 1024, 16, 2);
    Table deep_table({"admissions/s", "enqueue p50 us", "enqueue p99 us",
                      "admitted", "batches"});
    deep_table.add_row({fmt(r.admissions_per_s, 0), fmt(r.enqueue_p50_us, 1),
                        fmt(r.enqueue_p99_us, 1), std::to_string(r.admitted),
                        std::to_string(r.batches)});
    deep_table.print();
    json["deep_admissions_per_s/cap1024"] = r.admissions_per_s;
    json["deep_enqueue_p50_us/cap1024"] = r.enqueue_p50_us;
    json["deep_enqueue_p99_us/cap1024"] = r.enqueue_p99_us;
  }

  // -------------------------------------------------------------------
  // Wire path: one service + event-loop server shared by both sweeps.
  {
    service::ServiceOptions wire_options;
    wire_options.max_batch = 16;
    wire_options.queue_capacity = 4096;
    service::SchedulerService svc(net, SchedulerOptions{}, wire_options);
    for (std::size_t i = 0; i < 8; ++i) svc.submit(arrivals[i]).get();
    service::EventServer server(svc);
    server.start();

    bench::section("wire codec: closed-loop metrics scrapes over TCP "
                   "(json vs binary frames)");
    bench::note(
        "Each client owns one connection and scrapes the ops endpoint in a\n"
        "closed loop — the multi-KB Prometheus body is the codec-bound\n"
        "payload: NDJSON must escape it into a JSON string and the client\n"
        "re-scan it char by char; binary frames carry it verbatim.");
    Table codec_table(
        {"codec", "clients", "scrapes/s", "p50 us", "p99 us", "errors"});
    for (const service::Codec codec :
         {service::Codec::kJson, service::Codec::kBinary}) {
      const char* codec_name = codec == service::Codec::kJson ? "json"
                                                              : "binary";
      for (const std::size_t clients :
           {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
        const std::size_t ops = clients == 1 ? 192 : (clients == 8 ? 48 : 12);
        const WireResult r =
            run_wire(server.port(), codec, clients, ops, "metrics");
        codec_table.add_row({codec_name, std::to_string(clients),
                             fmt(r.rps, 0), fmt(r.p50_us, 0),
                             fmt(r.p99_us, 0), std::to_string(r.errors)});
        const std::string key =
            std::string(codec_name) + "_clients" + std::to_string(clients);
        json["wire_rps/" + key] = r.rps;
        json["wire_p50_us/" + key] = r.p50_us;
        json["wire_p99_us/" + key] = r.p99_us;
      }
    }
    codec_table.print();

    bench::section("connection scaling: binary codec, closed-loop queries, "
                   "1 -> 1024 clients");
    bench::note(
        "Every client is a live connection on the single event loop; the\n"
        "closed-loop p99 should grow at most linearly with the client count\n"
        "(tools/bench_service.sh gates p99@256 against p99@1).");
    Table scale_table(
        {"clients", "queries/s", "p50 us", "p99 us", "ops", "errors"});
    for (const std::size_t clients :
         {std::size_t{1}, std::size_t{64}, std::size_t{256},
          std::size_t{1024}}) {
      const std::size_t ops = std::max<std::size_t>(4, 2048 / clients);
      const WireResult r = run_wire(server.port(), service::Codec::kBinary,
                                    clients, ops, "query");
      scale_table.add_row({std::to_string(clients), fmt(r.rps, 0),
                           fmt(r.p50_us, 0), fmt(r.p99_us, 0),
                           std::to_string(r.ops),
                           std::to_string(r.errors)});
      const std::string key = "clients" + std::to_string(clients);
      json["scale_rps/" + key] = r.rps;
      json["scale_p50_us/" + key] = r.p50_us;
      json["scale_p99_us/" + key] = r.p99_us;
      json["scale_ops/" + key] = static_cast<double>(r.ops);
      json["scale_errors/" + key] = static_cast<double>(r.errors);
    }
    scale_table.print();
    server.stop();
    svc.stop();
  }

  if (const char* path = std::getenv("SPARCLE_BENCH_JSON")) {
    std::FILE* out = std::fopen(path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
    std::fprintf(out, "{\n  \"benchmarks\": {\n");
    bool first = true;
    for (const auto& [key, value] : json) {
      std::fprintf(out, "%s    \"%s\": %.1f", first ? "" : ",\n", key.c_str(),
                   value);
      first = false;
    }
    std::fprintf(out, "\n  }\n}\n");
    std::fclose(out);
    std::printf("\nresults written to %s\n", path);
  }
  return 0;
}
