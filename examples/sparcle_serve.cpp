/// \file sparcle_serve.cpp
/// The placement daemon: load a scenario file, keep its network as the
/// managed dispersed-computing fabric, pre-admit the scenario's
/// applications, and serve placement requests on TCP until interrupted.
/// One event-loop thread multiplexes every connection, and both wire
/// codecs share the port: newline-delimited JSON (docs/service.md) and
/// length-prefixed binary frames (docs/wire.md) — the first byte a client
/// sends picks the codec.
///
/// Usage:
///   sparcle_serve <scenario-file> [--port P] [--bind ADDR]
///                 [--max-batch N] [--queue-capacity N] [--deadline-ms N]
///                 [--window-seconds N] [--idle-timeout-ms N]
///                 [--shards N] [--validate]
///                 [--oneshot] [--metrics-out FILE] [--decision-log FILE]
///                 [--trace-out FILE] [--trace-capacity N]
///                 [--decision-capacity N]
///
///   --shards          run a federated backend with N regional scheduler
///                     shards (docs/federation.md) instead of one global
///                     scheduler; the wire protocol is unchanged
///   --port            TCP port (default 7411; 0 picks an ephemeral port)
///   --bind            bind address (default 127.0.0.1, loopback only)
///   --max-batch       admission requests coalesced per scheduler batch
///   --queue-capacity  bound on queued requests (backpressure beyond it)
///   --deadline-ms     default per-request deadline (0 = none)
///   --window-seconds  live telemetry window width (default 60)
///   --idle-timeout-ms close connections idle for this long (0 = never)
///   --validate        run the invariant checker after every batch
///   --oneshot         start, loop a submit/query/remove round trip back
///                     through a TCP client in *both* codecs, scrape and
///                     validate the stats/metrics ops verbs, print the
///                     transcript, exit (the self-test mode CI exercises)
///   --metrics-out     write a metrics snapshot on exit (JSON / .csv)
///   --decision-log    write the decision log as CSV on exit (includes
///                     queue_reject rows for backpressure bounces, each
///                     tagged with the originating request's trace id)
///   --trace-out       write a Chrome trace (chrome://tracing /
///                     ui.perfetto.dev) on exit; service requests appear
///                     as flow-linked spans keyed by trace id
///   --trace-capacity  cap on buffered trace events (oldest dropped)
///   --decision-capacity  cap on buffered decision rows (oldest dropped)
///
/// The daemon's own metrics registry (SchedulerService::registry()) is
/// installed as the process-global sink, so scheduler.* / assigner.*
/// instruments land in the same registry the `metrics` ops verb exposes.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "federation/federation.hpp"
#include "obs/obs.hpp"
#include "obs/prometheus.hpp"
#include "service/client.hpp"
#include "service/scheduler_service.hpp"
#include "service/event_server.hpp"
#include "workload/scenario_io.hpp"

using namespace sparcle;

namespace {

std::atomic<bool> g_stop{false};
void handle_signal(int) { g_stop.store(true); }

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <scenario-file> [--port P] [--bind ADDR] "
               "[--max-batch N] [--queue-capacity N] [--deadline-ms N]\n"
               "       [--window-seconds N] "
               "[--idle-timeout-ms N] [--shards N] [--validate] "
               "[--oneshot] [--metrics-out FILE] [--decision-log FILE]\n"
               "       [--trace-out FILE] [--trace-capacity N] "
               "[--decision-capacity N]\n",
               argv0);
  return 2;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void print_fields(const char* label,
                  const std::map<std::string, std::string>& fields) {
  std::printf("%-10s", label);
  for (const auto& [key, value] : fields)
    std::printf(" %s=%s", key.c_str(), value.c_str());
  std::printf("\n");
}

/// Scrapes the `metrics` verb, validates the exposition structurally, and
/// returns the samples.  Throws std::runtime_error on any violation.
std::vector<obs::ExpositionSample> scrape_metrics(service::TcpClient& client) {
  const auto response = client.request_fields("{\"verb\":\"metrics\"}");
  const auto body_it = response.find("body");
  if (body_it == response.end())
    throw std::runtime_error("metrics response has no 'body' field");
  return obs::validate_exposition(body_it->second);
}

double sample_value(const std::vector<obs::ExpositionSample>& samples,
                    const std::string& name) {
  for (const obs::ExpositionSample& s : samples)
    if (s.name == name && s.labels.empty()) return s.value;
  return -1.0;
}

/// The --oneshot self-test: talk to our own daemon through the real TCP
/// stack, exercising every verb once — including a double scrape of the
/// ops endpoint with exposition validation and counter-monotonicity
/// checks.  Returns an exit status.
int oneshot(service::EventServer& server,
            const workload::ScenarioFile& scenario,
            const Network& net) {
  service::TcpClient client("127.0.0.1", server.port());
  print_fields("query", client.query());

  std::vector<obs::ExpositionSample> first;
  try {
    first = scrape_metrics(client);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "oneshot: first metrics scrape failed: %s\n",
                 e.what());
    return 1;
  }

  if (!scenario.apps.empty()) {
    // Resubmit a copy of the first scenario app under a fresh name: the
    // exact text a remote client would put on the wire.
    Application probe = scenario.apps.front();
    probe.name = "oneshot_probe";
    const std::string block = workload::write_app_text(probe, net);
    const auto submitted = client.submit_app_text(block);
    print_fields("submit", submitted);
    if (const auto it = submitted.find("status");
        it == submitted.end() ||
        (it->second != "admitted" && it->second != "rejected")) {
      std::fprintf(stderr, "oneshot: unexpected submit response\n");
      return 1;
    }
    if (submitted.find("trace_id") == submitted.end() ||
        submitted.find("queue_us") == submitted.end() ||
        submitted.find("solve_us") == submitted.end()) {
      std::fprintf(stderr, "oneshot: submit response lacks the stage "
                           "breakdown (trace_id/queue_us/solve_us)\n");
      return 1;
    }
    print_fields("query", client.query("oneshot_probe"));
    print_fields("remove", client.remove("oneshot_probe"));
  }
  print_fields("drain", client.drain());

  const auto health = client.request_fields("{\"verb\":\"stats\"}");
  print_fields("stats", health);
  const auto slo_it = health.find("slo_state");
  if (slo_it == health.end() ||
      (slo_it->second != "ok" && slo_it->second != "degraded" &&
       slo_it->second != "breached")) {
    std::fprintf(stderr, "oneshot: stats response lacks a valid slo_state\n");
    return 1;
  }

  std::vector<obs::ExpositionSample> second;
  try {
    second = scrape_metrics(client);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "oneshot: second metrics scrape failed: %s\n",
                 e.what());
    return 1;
  }
  // Counters must be monotone between the two scrapes.
  for (const obs::ExpositionSample& s : first) {
    if (!ends_with(s.name, "_total") || !s.labels.empty()) continue;
    const double later = sample_value(second, s.name);
    if (later >= 0.0 && later + 1e-9 < s.value) {
      std::fprintf(stderr, "oneshot: counter %s went backwards (%g -> %g)\n",
                   s.name.c_str(), s.value, later);
      return 1;
    }
  }
  // The admission-latency histogram family must be present and populated.
  const double lat_count =
      sample_value(second, "sparcle_service_admission_latency_us_count");
  if (lat_count <= 0.0) {
    std::fprintf(stderr,
                 "oneshot: admission latency histogram missing or empty\n");
    return 1;
  }
  std::printf("oneshot: OK (%zu -> %zu exposition samples)\n", first.size(),
              second.size());
  return 0;
}

/// The binary half of --oneshot: open a binary-codec connection next to
/// a JSON one against the same daemon, check the two codecs agree on a
/// query, and push a submit/remove probe through the frame path (trace
/// fields included).  Returns an exit status.
int oneshot_binary(service::EventServer& server,
                   const workload::ScenarioFile& scenario,
                   const Network& net) {
  service::TcpClient json("127.0.0.1", server.port(), service::Codec::kJson);
  service::TcpClient binary("127.0.0.1", server.port(),
                            service::Codec::kBinary);
  const auto json_query = json.query();
  const auto binary_query = binary.query();
  print_fields("bquery", binary_query);
  if (json_query != binary_query) {
    std::fprintf(stderr,
                 "oneshot: binary and JSON query responses differ\n");
    return 1;
  }
  if (!scenario.apps.empty()) {
    Application probe = scenario.apps.front();
    probe.name = "oneshot_probe_bin";
    const std::string block = workload::write_app_text(probe, net);
    const auto submitted = binary.submit_app_text(block);
    print_fields("bsubmit", submitted);
    if (const auto it = submitted.find("status");
        it == submitted.end() ||
        (it->second != "admitted" && it->second != "rejected")) {
      std::fprintf(stderr, "oneshot: unexpected binary submit response\n");
      return 1;
    }
    if (submitted.find("trace_id") == submitted.end() ||
        submitted.find("queue_us") == submitted.end() ||
        submitted.find("solve_us") == submitted.end()) {
      std::fprintf(stderr, "oneshot: binary submit response lacks the "
                           "stage breakdown\n");
      return 1;
    }
    print_fields("bremove", binary.remove("oneshot_probe_bin"));
  }
  const auto health =
      binary.call(std::map<std::string, std::string>{{"verb", "stats"}});
  const auto slo_it = health.find("slo_state");
  if (slo_it == health.end() ||
      (slo_it->second != "ok" && slo_it->second != "degraded" &&
       slo_it->second != "breached")) {
    std::fprintf(stderr,
                 "oneshot: binary stats response lacks a valid slo_state\n");
    return 1;
  }
  std::printf("oneshot: binary codec OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_path;
  service::EventServerOptions net_options;
  net_options.port = 7411;
  service::ServiceOptions svc_options;
  SchedulerOptions sched_options;
  std::size_t shards = 1;
  bool run_oneshot = false;
  std::string metrics_path, decisions_path, trace_path;
  std::size_t trace_capacity = 0, decision_capacity = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--port") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      net_options.port = static_cast<std::uint16_t>(std::atoi(v));
    } else if (arg == "--bind") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      net_options.bind_address = v;
    } else if (arg == "--max-batch") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      svc_options.max_batch = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--queue-capacity") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      svc_options.queue_capacity = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--deadline-ms") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      svc_options.default_deadline = std::chrono::milliseconds(std::atoi(v));
    } else if (arg == "--window-seconds") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      svc_options.window_seconds = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--idle-timeout-ms") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      net_options.idle_timeout = std::chrono::milliseconds(std::atoi(v));
    } else if (arg == "--shards") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      shards = static_cast<std::size_t>(std::atoi(v));
      if (shards == 0) shards = 1;
    } else if (arg == "--validate") {
      svc_options.validate_batches = true;
    } else if (arg == "--oneshot") {
      run_oneshot = true;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      metrics_path = v;
    } else if (arg == "--decision-log") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      decisions_path = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      trace_path = v;
    } else if (arg == "--trace-capacity") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      trace_capacity = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--decision-capacity") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      decision_capacity = static_cast<std::size_t>(std::atoi(v));
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage(argv[0]);
    } else {
      scenario_path = arg;
    }
  }
  if (scenario_path.empty()) return usage(argv[0]);

  workload::ScenarioFile scenario;
  try {
    scenario = workload::load_scenario_file(scenario_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  obs::DecisionLog decisions;
  obs::ChromeTraceCollector trace;
  if (trace_capacity > 0) trace.set_capacity(trace_capacity);
  if (decision_capacity > 0) decisions.set_capacity(decision_capacity);

  int status = 0;
  {
    // One global scheduler by default; --shards N swaps in the federated
    // backend behind the same PlacementService surface — the event loop,
    // wire codecs, and local client are untouched.
    std::unique_ptr<service::PlacementService> backend;
    if (shards > 1) {
      federation::FederationOptions fed_options;
      fed_options.shards = shards;
      fed_options.scheduler = sched_options;
      fed_options.service = svc_options;
      try {
        backend = std::make_unique<federation::FederatedService>(scenario.net,
                                                                 fed_options);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "sparcle_serve: --shards %zu: %s\n", shards,
                     e.what());
        return 1;
      }
    } else {
      backend = std::make_unique<service::SchedulerService>(
          scenario.net, sched_options, svc_options);
    }
    service::PlacementService& svc = *backend;

    // Unify the sinks: the service's own registry becomes the global one,
    // so scheduler.* / assigner.* / trace.dropped instruments are scraped
    // by the same ops endpoint that serves the service.* families.
    obs::Observability sinks;
    sinks.metrics = &svc.registry();
    sinks.decisions = &decisions;
    if (!trace_path.empty() || run_oneshot) sinks.trace = &trace;
    obs::install(sinks);

    // Pre-admit the scenario's arrival sequence through the same queue a
    // remote client would use.
    service::LocalClient local(svc);
    std::size_t admitted = 0;
    for (const Application& app : scenario.apps)
      if (local.submit(app).status == service::ServiceResult::Status::kAdmitted)
        ++admitted;

    service::EventServer server(svc, net_options);
    try {
      server.start();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      obs::uninstall();
      return 1;
    }
    std::printf(
        "sparcle_serve: %zu NCPs, %zu/%zu scenario app(s) admitted; "
        "listening on %s:%u (max_batch=%zu queue_capacity=%zu window=%zus)\n",
        scenario.net.ncp_count(), admitted, scenario.apps.size(),
        net_options.bind_address.c_str(), server.port(),
        svc_options.max_batch, svc_options.queue_capacity,
        svc_options.window_seconds);
    std::fflush(stdout);

    if (run_oneshot) {
      try {
        status = oneshot(server, scenario, svc.network());
        if (status == 0)
          status = oneshot_binary(server, scenario, svc.network());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "oneshot: %s\n", e.what());
        status = 1;
      }
    } else {
      std::signal(SIGINT, handle_signal);
      std::signal(SIGTERM, handle_signal);
      while (!g_stop.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      std::printf("sparcle_serve: shutting down\n");
    }
    server.stop();
    svc.stop();

    // Write sink dumps while the service (and its registry) is alive.
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      out << (ends_with(metrics_path, ".csv") ? svc.registry().to_csv()
                                              : svc.registry().to_json());
      std::printf("metrics snapshot written to %s\n", metrics_path.c_str());
    }
    obs::uninstall();
  }

  if (!decisions_path.empty()) {
    std::ofstream out(decisions_path);
    out << decisions.to_csv();
    std::printf("decision log (%zu rows, %llu dropped) written to %s\n",
                decisions.size(),
                static_cast<unsigned long long>(decisions.dropped()),
                decisions_path.c_str());
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    trace.write_json(out);
    std::printf("chrome trace (%zu events, %llu dropped) written to %s\n",
                trace.event_count(),
                static_cast<unsigned long long>(trace.dropped()),
                trace_path.c_str());
  }
  return status;
}
