/// \file sparcle_cli.cpp
/// Command-line front end: load a scenario file (network + application
/// arrival sequence), run the SPARCLE admission-control scheduler over it,
/// and report the placements and allocations — optionally exporting
/// Graphviz renderings and validating the allocation in the simulator.
///
/// Usage:
///   sparcle_cli <scenario-file> [--assigner NAME] [--max-paths N]
///               [--dot PREFIX] [--simulate SECONDS]
///   sparcle_cli <scenario-file> --connect HOST:PORT
///
///   --connect    client mode: instead of scheduling locally, submit the
///                scenario's applications to a running sparcle_serve
///                daemon over the NDJSON wire protocol (docs/service.md)
///                and print each response.  The scenario's network section
///                must describe the daemon's network (pins resolve by NCP
///                name).  All other options are local-mode only.
///   --assigner   SPARCLE (default), GS, GRand, Random, T-Storm, VNE, HEFT
///   --max-paths  cap on task-assignment paths per app (default 4)
///   --dot        write PREFIX_<app>.dot for each admitted app, plus
///                PREFIX_network.dot
///   --simulate   replay all allocated paths for that many simulated
///                seconds and report delivered throughput
///   --trace      with --simulate: write the unit-lifecycle event trace
///                as CSV to this file
///   --validate   run the invariant checker (src/check) after every
///                scheduler mutation and once more on the final state;
///                any violation is printed and exits with status 3
///                (docs/testing.md has the invariant catalog)
///
/// Observability (docs/observability.md):
///   --metrics-out FILE   write a metrics snapshot on exit (counters,
///                        gauges, histograms; JSON, or CSV when FILE ends
///                        in .csv)
///   --trace-out FILE     write phase-timer spans as Chrome trace-event
///                        JSON (open in chrome://tracing or Perfetto)
///   --decision-log FILE  write every admission/rejection/path-addition
///                        decision with its reason as CSV
///
/// Network churn (docs/churn.md):
///   --churn-trace FILE   after all arrivals, replay this element
///                        failure/recovery trace against the scheduler
///   --churn-gen M,R,H,S  generate a Poisson churn trace instead
///                        (MTBF, MTTR, horizon, seed) and replay it
///   --churn-out FILE     record the replayed trace to FILE (exact
///                        round-trip; feed back via --churn-trace)
/// Every replayed event is followed by one Scheduler::repair() pass.
///
/// A scenario file example ships in examples/scenarios/.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "baselines/registry.hpp"
#include "check/invariants.hpp"
#include "core/scheduler.hpp"
#include "model/dot_export.hpp"
#include "obs/obs.hpp"
#include "service/client.hpp"
#include "sim/churn_injector.hpp"
#include "sim/stream_simulator.hpp"
#include "sim/trace.hpp"
#include "workload/scenario_io.hpp"

using namespace sparcle;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <scenario-file> [--assigner NAME] [--max-paths N] "
               "[--dot PREFIX] [--simulate SECONDS] [--trace FILE]\n"
               "       [--metrics-out FILE] [--trace-out FILE] "
               "[--decision-log FILE] [--validate]\n"
               "       [--churn-trace FILE | --churn-gen MTBF,MTTR,HORIZON,"
               "SEED] [--churn-out FILE]\n"
               "       %s <scenario-file> --connect HOST:PORT\n",
               argv0, argv0);
  return 2;
}

/// Client mode: submit the scenario's applications to a sparcle_serve
/// daemon at `endpoint` ("HOST:PORT") and print each wire response.
int run_connect_mode(const workload::ScenarioFile& scenario,
                     const std::string& endpoint) {
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon + 1 >= endpoint.size()) {
    std::fprintf(stderr, "--connect expects HOST:PORT, got '%s'\n",
                 endpoint.c_str());
    return 2;
  }
  const std::string host = endpoint.substr(0, colon);
  const int port = std::atoi(endpoint.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "--connect: bad port in '%s'\n", endpoint.c_str());
    return 2;
  }
  try {
    service::TcpClient client(host, static_cast<std::uint16_t>(port));
    std::printf("submitting %zu application(s) to %s:\n",
                scenario.apps.size(), endpoint.c_str());
    for (const Application& app : scenario.apps) {
      const auto response = client.submit_app_text(
          workload::write_app_text(app, scenario.net));
      const auto status = response.find("status");
      const auto reason = response.find("reason");
      const auto rate = response.find("rate");
      std::printf("  %-16s %s%s%s%s%s\n", app.name.c_str(),
                  status != response.end() ? status->second.c_str() : "?",
                  rate != response.end() ? "  rate=" : "",
                  rate != response.end() ? rate->second.c_str() : "",
                  reason != response.end() ? "  " : "",
                  reason != response.end() ? reason->second.c_str() : "");
    }
    std::printf("\nserver state after drain:\n ");
    for (const auto& [key, value] : client.drain())
      std::printf(" %s=%s", key.c_str(), value.c_str());
    std::printf("\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Owns the observability sinks for the whole run and writes the requested
/// output files on destruction — every exit path (including errors) still
/// produces the snapshots gathered so far.
struct ObsSession {
  sparcle::obs::MetricsRegistry metrics;
  sparcle::obs::ChromeTraceCollector trace;
  sparcle::obs::DecisionLog decisions;
  std::string metrics_path, trace_path, decisions_path;

  bool active() const {
    return !metrics_path.empty() || !trace_path.empty() ||
           !decisions_path.empty();
  }

  void install() {
    sparcle::obs::Observability o;
    if (!metrics_path.empty()) o.metrics = &metrics;
    if (!trace_path.empty()) o.trace = &trace;
    if (!decisions_path.empty()) o.decisions = &decisions;
    sparcle::obs::install(o);
  }

  ~ObsSession() {
    sparcle::obs::uninstall();
    if (!metrics_path.empty() &&
        write_file(metrics_path, ends_with(metrics_path, ".csv")
                                     ? metrics.to_csv()
                                     : metrics.to_json()))
      std::printf("metrics snapshot written to %s\n", metrics_path.c_str());
    if (!trace_path.empty() && write_file(trace_path, trace.to_json()))
      std::printf("Chrome trace (%zu spans) written to %s\n",
                  trace.event_count(), trace_path.c_str());
    if (!decisions_path.empty() &&
        write_file(decisions_path, decisions.to_csv()))
      std::printf("decision log (%zu rows) written to %s\n",
                  decisions.size(), decisions_path.c_str());
  }
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  std::string scenario_path;
  std::string assigner_name = "SPARCLE";
  std::string dot_prefix;
  std::string trace_path;
  std::size_t max_paths = 4;
  double simulate_seconds = 0;
  bool validate = false;
  std::string churn_trace_path, churn_gen_spec, churn_out_path;
  std::string connect_endpoint;
  ObsSession obs_session;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--assigner") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      assigner_name = v;
    } else if (arg == "--max-paths") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      max_paths = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--dot") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      dot_prefix = v;
    } else if (arg == "--simulate") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      simulate_seconds = std::atof(v);
    } else if (arg == "--trace") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      trace_path = v;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      obs_session.metrics_path = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      obs_session.trace_path = v;
    } else if (arg == "--decision-log") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      obs_session.decisions_path = v;
    } else if (arg == "--validate") {
      validate = true;
    } else if (arg == "--churn-trace") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      churn_trace_path = v;
    } else if (arg == "--churn-gen") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      churn_gen_spec = v;
    } else if (arg == "--churn-out") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      churn_out_path = v;
    } else if (arg == "--connect") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      connect_endpoint = v;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage(argv[0]);
    } else {
      scenario_path = arg;
    }
  }
  if (scenario_path.empty()) return usage(argv[0]);
  if (obs_session.active()) obs_session.install();

  workload::ScenarioFile scenario;
  try {
    scenario = workload::load_scenario_file(scenario_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", scenario_path.c_str(), e.what());
    return 1;
  }
  std::printf("scenario: %zu NCPs, %zu links, %zu application(s)\n",
              scenario.net.ncp_count(), scenario.net.link_count(),
              scenario.apps.size());

  if (!connect_endpoint.empty())
    return run_connect_mode(scenario, connect_endpoint);

  SchedulerOptions options;
  options.max_paths = max_paths;
  std::unique_ptr<Assigner> assigner;
  try {
    assigner = make_assigner(assigner_name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  Scheduler sched(scenario.net, std::move(assigner), options);

  // With --validate every mutating scheduler call re-checks the full
  // invariant set (the hook throws std::logic_error on the first
  // violation, caught per-submit below); in debug builds the hook is
  // armed even without the flag.
  std::optional<check::ScopedValidation> validation;
  if (validate) validation.emplace(/*force=*/true);

  if (!dot_prefix.empty())
    write_file(dot_prefix + "_network.dot", network_to_dot(sched.network()));

  std::printf("\narrivals (assigner: %s):\n", assigner_name.c_str());
  for (const Application& app : scenario.apps) {
    AdmissionResult r;
    try {
      r = sched.submit(app);
    } catch (const std::logic_error& e) {
      // The validation hook found a broken invariant: the state cannot be
      // trusted past this point, so fail loudly instead of continuing.
      std::fprintf(stderr, "validation FAILED after submitting %s:\n%s",
                   app.name.c_str(), e.what());
      return 3;
    } catch (const std::exception& e) {
      std::printf("  %-16s ERROR: %s\n", app.name.c_str(), e.what());
      continue;
    }
    if (r.admitted)
      std::printf("  %-16s ADMITTED  paths=%zu rate=%.4f avail=%.3f\n",
                  app.name.c_str(), r.path_count, r.rate, r.availability);
    else
      std::printf("  %-16s REJECTED  %s\n", app.name.c_str(),
                  r.reason.c_str());
  }

  std::printf("\nfinal allocations:\n");
  for (const PlacedApp& pa : sched.placed()) {
    std::printf("  %-16s %s rate=%.4f paths=%zu\n", pa.app.name.c_str(),
                pa.app.qoe.cls == QoeClass::kGuaranteedRate ? "GR" : "BE",
                pa.allocated_rate, pa.paths.size());
    for (std::size_t k = 0; k < pa.paths.size(); ++k) {
      std::printf("    path %zu (%.4f units/s):", k + 1, pa.path_rates[k]);
      const TaskGraph& g = *pa.app.graph;
      for (CtId i = 0; i < static_cast<CtId>(g.ct_count()); ++i)
        std::printf(" %s@%s", g.ct(i).name.c_str(),
                    sched.network()
                        .ncp(pa.paths[k].placement.ct_host(i))
                        .name.c_str());
      std::printf("\n");
    }
    if (!dot_prefix.empty())
      write_file(dot_prefix + "_" + pa.app.name + ".dot",
                 placement_to_dot(sched.network(), *pa.app.graph,
                                  pa.paths[0].placement));
  }
  const double utility = sched.be_utility();
  if (utility != 0.0)
    std::printf("  BE utility: %.4f\n", utility);
  if (sched.total_gr_rate() > 0)
    std::printf("  total GR rate: %.4f\n", sched.total_gr_rate());

  if (validate) {
    const check::CheckReport report = check::check_scheduler_state(sched);
    if (!report.ok()) {
      std::fprintf(stderr, "\nvalidation FAILED on the final state:\n%s",
                   report.to_string().c_str());
      return 3;
    }
    std::printf("\nvalidation: OK (%zu placed app(s), all invariants hold)\n",
                sched.placed().size());
  }

  if (!churn_trace_path.empty() && !churn_gen_spec.empty()) {
    std::fprintf(stderr,
                 "--churn-trace and --churn-gen are mutually exclusive\n");
    return 2;
  }
  if (!churn_trace_path.empty() || !churn_gen_spec.empty()) {
    sim::ChurnTrace trace;
    try {
      if (!churn_gen_spec.empty()) {
        double mtbf = 0, mttr = 0, horizon = 0, seed = 0;
        if (std::sscanf(churn_gen_spec.c_str(), "%lf,%lf,%lf,%lf", &mtbf,
                        &mttr, &horizon, &seed) != 4) {
          std::fprintf(stderr,
                       "--churn-gen expects MTBF,MTTR,HORIZON,SEED\n");
          return 2;
        }
        sim::ChurnModel model;
        model.default_mtbf = mtbf;
        model.default_mttr = mttr;
        trace = sim::generate_poisson_churn(
            scenario.net, model, horizon,
            static_cast<std::uint64_t>(seed));
      } else {
        trace = sim::load_churn_trace_file(churn_trace_path, scenario.net);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "churn trace: %s\n", e.what());
      return 1;
    }
    if (!churn_out_path.empty() &&
        write_file(churn_out_path,
                   sim::write_churn_trace(trace, scenario.net)))
      std::printf("\nchurn trace (%zu events) written to %s\n",
                  trace.events.size(), churn_out_path.c_str());

    std::printf("\nreplaying %zu churn event(s):\n", trace.events.size());
    sim::ChurnInjector injector(sched, std::move(trace));
    try {
      injector.run_all();
    } catch (const std::logic_error& e) {
      std::fprintf(stderr, "validation FAILED during churn replay:\n%s",
                   e.what());
      return 3;
    }
    const sim::ChurnInjectorStats& cs = injector.stats();
    std::printf("  %zu failure(s), %zu recover(y/ies), %zu redundant\n",
                cs.failures, cs.recoveries, cs.redundant);
    std::printf(
        "  repair touched %zu app(s); %zu path(s) dropped, %zu added, "
        "%zu retr(y/ies)\n",
        cs.apps_touched, cs.paths_dropped, cs.paths_added, cs.retries);
    std::printf("  post-churn: total GR rate %.4f", sched.total_gr_rate());
    const auto degraded = sched.degraded_gr_apps();
    if (!degraded.empty()) {
      std::printf(", %zu GR app(s) degraded:", degraded.size());
      for (const std::string& name : degraded)
        std::printf(" %s", name.c_str());
    }
    std::printf("\n");
    if (validate) {
      const check::CheckReport report =
          check::check_scheduler_state(sched, check::CheckOptions{});
      if (!report.ok()) {
        std::fprintf(stderr,
                     "\nvalidation FAILED on the post-churn state:\n%s",
                     report.to_string().c_str());
        return 3;
      }
      std::printf("  validation: OK after churn replay\n");
    }
  }

  if (simulate_seconds > 0) {
    std::printf("\nsimulating %.0f s at 95%% of allocated rates:\n",
                simulate_seconds);
    sim::StreamSimulator simulator(sched.network(), 1);
    std::ofstream trace_file;
    std::unique_ptr<sim::CsvTraceSink> trace_sink;
    if (!trace_path.empty()) {
      trace_file.open(trace_path);
      if (!trace_file) {
        std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
        return 1;
      }
      trace_sink = std::make_unique<sim::CsvTraceSink>(trace_file);
      simulator.set_trace_sink(trace_sink.get());
    }
    struct Ref {
      const PlacedApp* app;
      std::size_t path;
      double rate;
    };
    std::vector<Ref> refs;
    for (const PlacedApp& pa : sched.placed())
      for (std::size_t k = 0; k < pa.paths.size(); ++k)
        if (pa.path_rates[k] > 1e-9) {
          const double rate = 0.95 * pa.path_rates[k];
          simulator.add_stream(*pa.app.graph, pa.paths[k].placement, rate);
          refs.push_back({&pa, k, rate});
        }
    if (refs.empty()) {
      std::printf("  nothing to simulate\n");
      return 0;
    }
    const auto report =
        simulator.run(simulate_seconds, simulate_seconds / 5);
    for (std::size_t s = 0; s < refs.size(); ++s)
      std::printf(
          "  %-16s path %zu: offered %.4f delivered %.4f latency %.3fs\n",
          refs[s].app->app.name.c_str(), refs[s].path + 1, refs[s].rate,
          report.streams[s].throughput, report.streams[s].mean_latency);
    if (!trace_path.empty())
      std::printf("  event trace written to %s\n", trace_path.c_str());
  }
  return 0;
}
