#include "service/scheduler_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "admission_scan.hpp"
#include "core/parallel.hpp"
#include "obs/obs.hpp"
#include "policy/policy.hpp"
#include "obs/prometheus.hpp"
#include "obs/slo.hpp"
#include "service/client.hpp"
#include "service/event_server.hpp"
#include "service/wire.hpp"
#include "workload/scenario_io.hpp"

namespace sparcle {
namespace {

using service::SchedulerService;
using service::ServiceOptions;
using service::ServiceResult;

// ---------------------------------------------------------------------------
// Fixtures

/// Source and destination sites joined by two disjoint relays (the
/// test_scheduler classic): src - r1 - dst and src - r2 - dst.
Network make_two_relay_net(double relay_cap = 10.0) {
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("src", ResourceVector::scalar(1.0));
  net.add_ncp("r1", ResourceVector::scalar(relay_cap));
  net.add_ncp("r2", ResourceVector::scalar(relay_cap));
  net.add_ncp("dst", ResourceVector::scalar(1.0));
  net.add_link("s1", 0, 1, 1000.0);
  net.add_link("1d", 1, 3, 1000.0);
  net.add_link("s2", 0, 2, 1000.0);
  net.add_link("2d", 2, 3, 1000.0);
  return net;
}

/// source -> mid (`mid_cpu` units) -> sink, 1-bit transports.
std::shared_ptr<const TaskGraph> make_relay_graph(double mid_cpu = 5.0) {
  auto g = std::make_shared<TaskGraph>(ResourceSchema::cpu_only());
  const CtId s = g->add_ct("source", ResourceVector::scalar(0));
  const CtId m = g->add_ct("mid", ResourceVector::scalar(mid_cpu));
  const CtId t = g->add_ct("sink", ResourceVector::scalar(0));
  g->add_tt("sm", 1.0, s, m);
  g->add_tt("mt", 1.0, m, t);
  g->finalize();
  return g;
}

Application make_app(const std::string& name, QoeSpec qoe,
                     double mid_cpu = 5.0) {
  Application app;
  app.name = name;
  app.graph = make_relay_graph(mid_cpu);
  app.qoe = qoe;
  app.pinned = {{0, 0}, {2, 3}};
  return app;
}

/// A star with `leaves` leaf NCPs around a fat hub; apps route
/// leaf -> hub -> leaf.  Deterministic, no RNG.
Network make_star_net(std::size_t leaves, double hub_cap, double leaf_cap) {
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("hub", ResourceVector::scalar(hub_cap));
  for (std::size_t i = 0; i < leaves; ++i) {
    const NcpId leaf =
        net.add_ncp("leaf" + std::to_string(i), ResourceVector::scalar(leaf_cap));
    net.add_link("l" + std::to_string(i), 0, leaf, 1000.0);
  }
  return net;
}

Application make_star_app(const std::string& name, QoeSpec qoe,
                          NcpId src_leaf, NcpId dst_leaf, double mid_cpu) {
  Application app;
  app.name = name;
  app.graph = make_relay_graph(mid_cpu);
  app.qoe = qoe;
  app.pinned = {{0, src_leaf}, {2, dst_leaf}};
  return app;
}

// ---------------------------------------------------------------------------
// Wire protocol units

TEST(Wire, EscapeHandlesQuotesNewlinesAndControls) {
  EXPECT_EQ(service::wire::escape("app \"x\"\n\tend"),
            "app \\\"x\\\"\\n\\tend");
  EXPECT_EQ(service::wire::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Wire, LineRoundTripsStringsAndBareTokens) {
  std::map<std::string, std::string> fields;
  fields["verb"] = "submit";
  fields["app"] = "app a be 2\n  ct f 4\nend";
  fields["count"] = "42";
  fields["ratio"] = "0.5";
  fields["flag"] = "true";
  const std::string line = service::wire::to_line(fields);
  // Numbers and booleans are emitted unquoted, strings quoted+escaped.
  EXPECT_NE(line.find("\"count\":42"), std::string::npos) << line;
  EXPECT_NE(line.find("\"flag\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("\\n"), std::string::npos) << line;
  EXPECT_EQ(service::wire::parse_line(line), fields);
}

TEST(Wire, ParseRejectsMalformedLines) {
  EXPECT_THROW(service::wire::parse_line("not json"), std::runtime_error);
  EXPECT_THROW(service::wire::parse_line("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(service::wire::parse_line("{\"a\":\"unterminated"),
               std::runtime_error);
  EXPECT_THROW(service::wire::parse_line("{\"a\":1 \"b\":2}"),
               std::runtime_error);
  EXPECT_NO_THROW(service::wire::parse_line("{}"));
}

TEST(Wire, ParseDecodesUnicodeEscapes) {
  const auto fields = service::wire::parse_line("{\"k\":\"a\\u0041b\"}");
  EXPECT_EQ(fields.at("k"), "aAb");
}

// ---------------------------------------------------------------------------
// Service basics

TEST(SchedulerService, SubmitRemoveQueryRoundTrip) {
  SchedulerService svc(make_two_relay_net());
  service::LocalClient client(svc);

  const ServiceResult admitted = client.submit(
      make_app("a", QoeSpec::best_effort(1.0)));
  ASSERT_EQ(admitted.status, ServiceResult::Status::kAdmitted)
      << admitted.reason;
  EXPECT_NEAR(admitted.rate, 2.0, 1e-3);  // relay cpu 10 / mid 5
  EXPECT_GT(admitted.latency_us, 0.0);

  // The future resolving happens-after the snapshot publish: the app is
  // immediately visible.
  auto snap = client.query();
  ASSERT_NE(snap->find("a"), nullptr);
  EXPECT_NEAR(snap->find("a")->allocated_rate, 2.0, 1e-3);
  EXPECT_FALSE(snap->find("a")->guaranteed);
  EXPECT_GE(snap->version, 1u);

  const ServiceResult removed = client.remove("a");
  EXPECT_EQ(removed.status, ServiceResult::Status::kRemoved);
  EXPECT_EQ(client.query()->find("a"), nullptr);

  const ServiceResult missing = client.remove("a");
  EXPECT_EQ(missing.status, ServiceResult::Status::kNotFound);
  EXPECT_NE(missing.reason.find("no placed app"), std::string::npos);
}

TEST(SchedulerService, RejectsDuplicateNames) {
  SchedulerService svc(make_two_relay_net());
  service::LocalClient client(svc);
  ASSERT_TRUE(client.submit(make_app("a", QoeSpec::best_effort(1.0))).ok());
  const ServiceResult dup =
      client.submit(make_app("a", QoeSpec::best_effort(2.0)));
  EXPECT_EQ(dup.status, ServiceResult::Status::kRejected);
  EXPECT_NE(dup.reason.find("already placed"), std::string::npos);
  EXPECT_EQ(svc.snapshot()->apps.size(), 1u);
}

TEST(SchedulerService, BatchedBestEffortResultsCarrySolvedRates) {
  // Stage several BE submits while paused so they land in ONE batch; the
  // deferred PF solve must still patch real rates into every result.
  ServiceOptions options;
  options.max_batch = 16;
  options.start_paused = true;
  SchedulerService svc(make_two_relay_net(), SchedulerOptions{}, options);

  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < 4; ++i)
    futures.push_back(
        svc.submit(make_app("app" + std::to_string(i),
                            QoeSpec::best_effort(1.0))));
  EXPECT_EQ(svc.queue_depth(), 4u);
  svc.resume();

  double total = 0.0;
  for (auto& f : futures) {
    const ServiceResult r = f.get();
    ASSERT_EQ(r.status, ServiceResult::Status::kAdmitted) << r.reason;
    EXPECT_GT(r.rate, 0.0);  // 0 would mean the mid-batch placeholder leaked
    total += r.rate;
  }
  // Both relays fully used: 2 * cap 10 / mid 5 = 4 units/s aggregate.
  EXPECT_NEAR(total, 4.0, 1e-2);
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.max_batch_seen, 4u);
  EXPECT_EQ(stats.resolves_saved, 3u);  // 4 deferred re-solves, 1 paid
  // The PF solver telemetry snapshot rode along with the batch counters.
  EXPECT_GT(stats.pf_solves, 0u);
  EXPECT_GT(stats.pf_newton_iters, 0u);
  EXPECT_EQ(svc.snapshot()->version, 1u);
}

TEST(SchedulerService, BatchedAndSerialAdmissionsAgree) {
  // The same arrival sequence through max_batch=1 and max_batch=16 must
  // produce identical admission outcomes and final allocations (batching
  // defers only the PF re-solve, never the admission decision).
  std::vector<Application> arrivals;
  for (int i = 0; i < 10; ++i)
    arrivals.push_back(make_app("be" + std::to_string(i),
                                QoeSpec::best_effort(1.0 + 0.5 * (i % 3))));
  arrivals.push_back(make_app("gr0", QoeSpec::guaranteed_rate(0.5, 0.0)));
  arrivals.push_back(make_app("gr1", QoeSpec::guaranteed_rate(0.25, 0.0)));

  auto run = [&](std::size_t max_batch) {
    ServiceOptions options;
    options.max_batch = max_batch;
    options.start_paused = true;
    options.validate_batches = true;
    SchedulerService svc(make_two_relay_net(), SchedulerOptions{}, options);
    std::vector<std::future<ServiceResult>> futures;
    for (const Application& app : arrivals) futures.push_back(svc.submit(app));
    svc.resume();
    std::vector<ServiceResult> results;
    for (auto& f : futures) results.push_back(f.get());
    EXPECT_EQ(svc.stats().invariant_violations, 0u)
        << svc.stats().first_violation;
    return std::make_pair(std::move(results), svc.snapshot());
  };

  const auto [serial, serial_snap] = run(1);
  const auto [batched, batched_snap] = run(16);
  ASSERT_EQ(serial.size(), batched.size());
  // Priority classes reorder GR ahead of BE in the batched run, but the
  // outcome per app must match: compare via the final snapshots plus the
  // per-request statuses.
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i].status, batched[i].status)
        << arrivals[i].name << ": " << serial[i].reason << " vs "
        << batched[i].reason;
  ASSERT_EQ(serial_snap->apps.size(), batched_snap->apps.size());
  EXPECT_NEAR(serial_snap->total_be_rate, batched_snap->total_be_rate, 1e-6);
  EXPECT_NEAR(serial_snap->total_gr_rate, batched_snap->total_gr_rate, 1e-6);
  EXPECT_NEAR(serial_snap->be_utility, batched_snap->be_utility, 1e-6);
  for (const service::AppView& view : serial_snap->apps) {
    const service::AppView* other = batched_snap->find(view.name);
    ASSERT_NE(other, nullptr) << view.name;
    EXPECT_NEAR(view.allocated_rate, other->allocated_rate, 1e-6)
        << view.name;
  }
}

// ---------------------------------------------------------------------------
// Priority classes

TEST(SchedulerService, GuaranteedRateQueuesAheadOfBestEffort) {
  ServiceOptions options;
  options.max_batch = 16;
  options.start_paused = true;
  SchedulerService svc(make_two_relay_net(), SchedulerOptions{}, options);

  // Enqueue BE first, GR second; the class queues must still hand the GR
  // submit to the scheduler first (visible in admission order).
  auto be = svc.submit(make_app("be", QoeSpec::best_effort(1.0)));
  auto gr = svc.submit(make_app("gr", QoeSpec::guaranteed_rate(0.5, 0.0)));
  svc.resume();
  EXPECT_TRUE(be.get().ok());
  EXPECT_TRUE(gr.get().ok());
  const auto snap = svc.snapshot();
  ASSERT_EQ(snap->apps.size(), 2u);
  EXPECT_EQ(snap->apps[0].name, "gr");  // admission order = processing order
  EXPECT_EQ(snap->apps[1].name, "be");
}

TEST(SchedulerService, RemovesRunBeforeSubmitsInTheSameBatch) {
  SchedulerService svc(make_two_relay_net());
  service::LocalClient client(svc);
  ASSERT_TRUE(client.submit(make_app("x", QoeSpec::best_effort(1.0))).ok());

  // Enqueue the resubmit BEFORE the remove; the control class must still
  // win, so the resubmit sees the name free and is admitted.
  svc.pause();
  auto resubmit = svc.submit(make_app("x", QoeSpec::best_effort(2.0)));
  auto removal = svc.remove("x");
  svc.resume();
  EXPECT_EQ(removal.get().status, ServiceResult::Status::kRemoved);
  const ServiceResult r = resubmit.get();
  EXPECT_EQ(r.status, ServiceResult::Status::kAdmitted) << r.reason;
  ASSERT_EQ(svc.snapshot()->apps.size(), 1u);
  EXPECT_NEAR(svc.snapshot()->apps[0].priority, 2.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Backpressure

TEST(SchedulerService, MalformedAppCannotEvictItsBatchMates) {
  // Four wire app blocks staged into one batch: a CT requirement of NaN
  // first, then three valid BE apps.  Whatever parses is submitted.  The
  // NaN app must be refused where it enters (the parser), so it can
  // neither be admitted nor fail the batch's PF solve and evict the
  // valid apps behind it.
  const Network net = make_two_relay_net();
  const auto block = [](const std::string& name, const std::string& work) {
    return "app " + name + " be 1\n ct s 0\n ct work " + work +
           "\n ct t 0\n tt a 1 s work\n tt b 1 work t\n pin s src\n"
           " pin t dst\nend\n";
  };
  ServiceOptions options;
  options.start_paused = true;
  SchedulerService svc(net, SchedulerOptions{}, options);
  std::size_t refused = 0;
  std::vector<std::future<ServiceResult>> valid;
  for (const auto& [name, work] :
       std::vector<std::pair<std::string, std::string>>{
           {"bad", "nan"}, {"a", "1"}, {"b", "2"}, {"c", "1"}}) {
    try {
      const std::vector<Application> apps =
          workload::parse_apps_text(block(name, work), net, "wire");
      auto future = svc.submit(apps.at(0));
      if (name != "bad") valid.push_back(std::move(future));
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("wire:3:"), std::string::npos)
          << e.what();
      ++refused;
    }
  }
  EXPECT_EQ(refused, 1u);
  svc.resume();
  for (auto& f : valid) {
    const ServiceResult r = f.get();
    EXPECT_EQ(r.status, ServiceResult::Status::kAdmitted) << r.reason;
    EXPECT_GT(r.rate, 0.0);
  }
  EXPECT_EQ(svc.snapshot()->apps.size(), 3u);
}

TEST(SchedulerService, FullQueueRejectsImmediately) {
  obs::DecisionLog decisions;
  obs::Observability sinks;
  sinks.decisions = &decisions;
  obs::ScopedInstall obs_session(sinks);

  ServiceOptions options;
  options.queue_capacity = 2;
  options.start_paused = true;
  SchedulerService svc(make_two_relay_net(), SchedulerOptions{}, options);

  auto a = svc.submit(make_app("a", QoeSpec::best_effort(1.0)));
  auto b = svc.submit(make_app("b", QoeSpec::best_effort(1.0)));
  auto c = svc.submit(make_app("c", QoeSpec::best_effort(1.0)));

  // The third future is ready without any scheduling having happened.
  ASSERT_EQ(c.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const ServiceResult bounced = c.get();
  EXPECT_EQ(bounced.status, ServiceResult::Status::kQueueFull);
  EXPECT_NE(bounced.reason.find("queue_full"), std::string::npos);
  EXPECT_NE(bounced.reason.find("2/2"), std::string::npos);
  EXPECT_EQ(svc.stats().queue_full, 1u);

  svc.resume();
  EXPECT_TRUE(a.get().ok());
  EXPECT_TRUE(b.get().ok());

  // The bounce reached the decision log as a queue_reject row.
  bool found = false;
  for (const obs::Decision& d : decisions.snapshot())
    if (d.kind == obs::DecisionKind::kQueueReject && d.app == "c") {
      found = true;
      EXPECT_EQ(d.qoe, "BE");
      EXPECT_NE(d.reason.find("queue_full"), std::string::npos);
    }
  EXPECT_TRUE(found);
}

TEST(SchedulerService, ExpiredDeadlinesRejectAtDequeue) {
  obs::DecisionLog decisions;
  obs::Observability sinks;
  sinks.decisions = &decisions;
  obs::ScopedInstall obs_session(sinks);

  ServiceOptions options;
  options.start_paused = true;
  SchedulerService svc(make_two_relay_net(), SchedulerOptions{}, options);

  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  auto expired = svc.submit(
      make_app("late", QoeSpec::guaranteed_rate(0.5, 0.0)), past);
  auto fresh = svc.submit(make_app("ok", QoeSpec::best_effort(1.0)));
  svc.resume();

  const ServiceResult r = expired.get();
  EXPECT_EQ(r.status, ServiceResult::Status::kDeadlineExceeded);
  EXPECT_NE(r.reason.find("deadline_exceeded"), std::string::npos);
  EXPECT_TRUE(fresh.get().ok());
  EXPECT_EQ(svc.stats().deadline_expired, 1u);
  EXPECT_EQ(svc.snapshot()->find("late"), nullptr);

  bool found = false;
  for (const obs::Decision& d : decisions.snapshot())
    if (d.kind == obs::DecisionKind::kQueueReject && d.app == "late") {
      found = true;
      EXPECT_EQ(d.qoe, "GR");
      EXPECT_NE(d.reason.find("deadline_exceeded"), std::string::npos);
    }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Lifecycle

TEST(SchedulerService, DrainWaitsForTheWholeQueue) {
  ServiceOptions options;
  options.max_batch = 4;
  SchedulerService svc(make_two_relay_net(100.0), SchedulerOptions{}, options);
  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < 12; ++i)
    futures.push_back(svc.submit(
        make_app("a" + std::to_string(i), QoeSpec::best_effort(1.0))));
  svc.drain();
  EXPECT_EQ(svc.queue_depth(), 0u);
  for (auto& f : futures)
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
}

TEST(SchedulerService, StopDrainsQueuedWorkAndRejectsNewWork) {
  ServiceOptions options;
  options.start_paused = true;
  SchedulerService svc(make_two_relay_net(), SchedulerOptions{}, options);
  auto queued = svc.submit(make_app("q", QoeSpec::best_effort(1.0)));
  svc.stop();  // un-pauses, drains, then joins
  EXPECT_EQ(queued.get().status, ServiceResult::Status::kAdmitted);

  const ServiceResult late = svc.submit(
      make_app("late", QoeSpec::best_effort(1.0))).get();
  EXPECT_EQ(late.status, ServiceResult::Status::kShutdown);
}

TEST(SchedulerService, BounceRepliesRunWithoutTheQueueLock) {
  // A bounce's completion may call into the service that bounced it (the
  // federation sends its next cross-shard step so).  Each bounce below
  // asks for the queue depth from another thread and waits up to 5 s for
  // the answer; the future lives outside the callback, so a bounce run
  // under the queue lock fails here after the timeout, not in a deadlock.
  ServiceOptions options;
  options.queue_capacity = 1;
  options.start_paused = true;
  SchedulerService svc(make_two_relay_net(), SchedulerOptions{}, options);
  auto queued = svc.submit(make_app("q", QoeSpec::best_effort(1.0)));

  std::future<std::size_t> depth;
  std::future_status answered = std::future_status::deferred;
  ServiceResult::Status status = ServiceResult::Status::kApplied;
  const auto bounce = [&](ServiceResult r) {
    status = r.status;
    depth = std::async(std::launch::async, [&svc] { return svc.queue_depth(); });
    answered = depth.wait_for(std::chrono::seconds(5));
  };

  svc.submit_async(make_app("full", QoeSpec::best_effort(1.0)), bounce);
  EXPECT_EQ(status, ServiceResult::Status::kQueueFull);
  EXPECT_EQ(answered, std::future_status::ready);
  EXPECT_EQ(depth.get(), 1u);

  svc.stop();
  EXPECT_EQ(queued.get().status, ServiceResult::Status::kAdmitted);
  answered = std::future_status::deferred;
  svc.submit_async(make_app("late", QoeSpec::best_effort(1.0)), bounce);
  EXPECT_EQ(status, ServiceResult::Status::kShutdown);
  EXPECT_EQ(answered, std::future_status::ready);
  EXPECT_EQ(depth.get(), 0u);
}

// ---------------------------------------------------------------------------
// TCP front end

TEST(EventServer, WireRoundTripOverRealSockets) {
  SchedulerService svc(make_two_relay_net());
  service::EventServer server(svc);  // port 0: ephemeral
  server.start();
  ASSERT_GT(server.port(), 0);

  service::TcpClient client("127.0.0.1", server.port());
  auto summary = client.query();
  EXPECT_EQ(summary.at("status"), "ok");
  EXPECT_EQ(summary.at("apps"), "0");

  const std::string block = workload::write_app_text(
      make_app("tcp_app", QoeSpec::best_effort(1.5)), svc.network());
  auto submitted = client.submit_app_text(block);
  EXPECT_EQ(submitted.at("status"), "admitted") << block;

  auto view = client.query("tcp_app");
  EXPECT_EQ(view.at("status"), "ok");
  EXPECT_EQ(view.at("class"), "be");
  EXPECT_EQ(view.at("priority"), "1.5");

  EXPECT_EQ(client.remove("tcp_app").at("status"), "removed");
  EXPECT_EQ(client.query("tcp_app").at("status"), "not_found");
  EXPECT_EQ(client.drain().at("apps"), "0");

  server.stop();
}

// The name predates the deletion of the synchronous EventServer::
// handle_line; it is kept so the test id stays stable.  The requests now
// travel over a real socket to dispatch(), the verb table that serves
// the wire.
TEST(EventServer, HandleLineReportsProtocolErrors) {
  SchedulerService svc(make_two_relay_net());
  service::EventServer server(svc);  // port 0: ephemeral
  server.start();
  service::TcpClient client("127.0.0.1", server.port());

  auto expect_error = [&](const std::string& line, const char* substring) {
    const auto fields = service::wire::parse_line(client.request(line));
    EXPECT_EQ(fields.at("status"), "error") << line;
    EXPECT_NE(fields.at("reason").find(substring), std::string::npos)
        << fields.at("reason");
  };
  expect_error("this is not json", "malformed");
  expect_error("{\"noverb\":1}", "missing 'verb'");
  expect_error("{\"verb\":\"frobnicate\"}", "unknown verb");
  expect_error("{\"verb\":\"submit\"}", "missing 'app'");
  expect_error("{\"verb\":\"submit\",\"app\":\"ncp rogue 5\"}",
               "network is fixed");
  expect_error("{\"verb\":\"remove\"}", "missing 'name'");
  server.stop();
}

// ---------------------------------------------------------------------------
// Telemetry plane: request tracing, stage breakdown, SLOs, ops endpoint

TEST(Telemetry, TimelineStagesPartitionTheLatency) {
  // Batch several submits so the shared PF solve is visibly amortized.
  ServiceOptions options;
  options.max_batch = 16;
  options.start_paused = true;
  SchedulerService svc(make_two_relay_net(), SchedulerOptions{}, options);
  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < 4; ++i)
    futures.push_back(svc.submit(
        make_app("app" + std::to_string(i), QoeSpec::best_effort(1.0))));
  svc.resume();

  std::set<std::uint64_t> traces;
  double shared_solve = -1.0;
  for (auto& f : futures) {
    const ServiceResult r = f.get();
    ASSERT_TRUE(r.ok()) << r.reason;
    const service::RequestTimeline& t = r.timeline;
    EXPECT_TRUE(traces.insert(t.trace_id).second);  // ids are unique
    EXPECT_GT(t.trace_id, 0u);
    EXPECT_GE(t.queue_us, 0.0);
    EXPECT_GE(t.batch_us, 0.0);
    EXPECT_GE(t.apply_us, 0.0);
    EXPECT_GE(t.solve_us, 0.0);
    EXPECT_GE(t.reply_us, 0.0);
    // The stages partition enqueue-to-reply: they are computed from the
    // same clock reads as latency_us, so the sum matches exactly (up to
    // floating-point rounding).
    EXPECT_NEAR(t.total_us(), r.latency_us, 1e-3) << r.latency_us;
    // Every request in the one batch reports the same shared solve cost.
    if (shared_solve < 0.0)
      shared_solve = t.solve_us;
    else
      EXPECT_DOUBLE_EQ(t.solve_us, shared_solve);
  }
}

TEST(Telemetry, ExpiredRequestsStillGetAPartitionedTimeline) {
  ServiceOptions options;
  options.start_paused = true;
  SchedulerService svc(make_two_relay_net(), SchedulerOptions{}, options);
  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  auto expired = svc.submit(make_app("late", QoeSpec::best_effort(1.0)), past);
  svc.resume();
  const ServiceResult r = expired.get();
  ASSERT_EQ(r.status, ServiceResult::Status::kDeadlineExceeded);
  EXPECT_GT(r.timeline.trace_id, 0u);  // it was queued, so it was traced
  EXPECT_DOUBLE_EQ(r.timeline.apply_us, 0.0);  // never reached the scheduler
  EXPECT_DOUBLE_EQ(r.timeline.solve_us, 0.0);
  EXPECT_NEAR(r.timeline.total_us(), r.latency_us, 1e-3);
}

TEST(Telemetry, TraceIdLinksDecisionLogAndChromeTrace) {
  obs::DecisionLog decisions;
  obs::ChromeTraceCollector trace;
  obs::Observability sinks;
  sinks.decisions = &decisions;
  sinks.trace = &trace;
  obs::ScopedInstall obs_session(sinks);

  SchedulerService svc(make_two_relay_net());
  const ServiceResult r =
      svc.submit(make_app("a", QoeSpec::best_effort(1.0))).get();
  ASSERT_TRUE(r.ok()) << r.reason;
  const std::uint64_t id = r.timeline.trace_id;
  ASSERT_GT(id, 0u);

  // The scheduler's admit row carries the originating request's trace id
  // (stamped via the scheduling thread's ScopedTrace).
  bool found = false;
  for (const obs::Decision& d : decisions.snapshot())
    if (d.kind == obs::DecisionKind::kAdmit && d.app == "a") {
      found = true;
      EXPECT_EQ(d.trace, id);
    }
  EXPECT_TRUE(found);
  // ...and lands in the trailing CSV column.
  const std::string csv = decisions.to_csv();
  EXPECT_EQ(csv.find(obs::DecisionLog::kCsvHeader), 0u);
  EXPECT_NE(csv.find("," + std::to_string(id) + "\n"), std::string::npos);

  // The Chrome trace shows the request as one causally-linked flow: a
  // flow start at enqueue, the enqueue-to-reply span tagged with the
  // trace id, and a flow finish binding to it.
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"name\": \"service.request\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"trace_id\": " + std::to_string(id) + "}"),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(json.find("\"id\": " + std::to_string(id)), std::string::npos);
  EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos);
}

// The transport of the two wire reads below moved from the deleted
// EventServer::handle_line to a started server; the name is kept so the
// test id stays stable.
TEST(Telemetry, SloFlipsToDegradedUnderQueueOverload) {
  // 8 arrivals against a 5-deep paused queue: 3 bounce, the reject ratio
  // hits 0.375 against the default 0.25 ceiling — burn 1.5, degraded.
  ServiceOptions options;
  options.queue_capacity = 5;
  options.start_paused = true;
  SchedulerService svc(make_two_relay_net(), SchedulerOptions{}, options);
  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < 8; ++i)
    futures.push_back(svc.submit(
        make_app("app" + std::to_string(i), QoeSpec::best_effort(1.0))));

  const obs::SloReport report = svc.slo_report();
  const obs::SloEvaluation* rej = report.find("reject_ratio");
  ASSERT_NE(rej, nullptr);
  EXPECT_NEAR(rej->observed, 0.375, 1e-9);
  EXPECT_NEAR(rej->burn, 1.5, 1e-9);
  EXPECT_EQ(rej->state, obs::SloState::kDegraded);
  EXPECT_EQ(report.worst, obs::SloState::kDegraded);

  // The health document and the exposition tell the same story — through
  // the wire verbs, as an operator would see them.  Both answer inline
  // from snapshots, so the paused queue does not hold them up.
  service::EventServer server(svc);  // port 0: ephemeral
  server.start();
  service::TcpClient client("127.0.0.1", server.port());
  const auto stats_fields =
      service::wire::parse_line(client.request("{\"verb\":\"stats\"}"));
  EXPECT_EQ(stats_fields.at("status"), "ok");
  EXPECT_EQ(stats_fields.at("slo_state"), "degraded");
  EXPECT_EQ(stats_fields.at("slo.reject_ratio.state"), "degraded");
  EXPECT_EQ(stats_fields.at("queue_depth"), "5");

  const auto metrics_fields =
      service::wire::parse_line(client.request("{\"verb\":\"metrics\"}"));
  EXPECT_EQ(metrics_fields.at("status"), "ok");
  EXPECT_EQ(metrics_fields.at("format"), "prometheus-0.0.4");
  const auto samples = obs::validate_exposition(metrics_fields.at("body"));
  EXPECT_FALSE(samples.empty());
  EXPECT_NE(metrics_fields.at("body").find("sparcle_slo_reject_ratio_burn"),
            std::string::npos);
  server.stop();

  svc.resume();
  for (auto& f : futures) (void)f.get();
}

TEST(Telemetry, StatsCoverEveryRegisteredServiceInstrument) {
  // ServiceStats is derived from the registry snapshot, so every counter
  // and gauge the service registers must appear in stats().metrics — a
  // newly added instrument can never silently miss the stats path.
  SchedulerService svc(make_two_relay_net());
  service::LocalClient client(svc);
  ASSERT_TRUE(client.submit(make_app("a", QoeSpec::best_effort(1.0))).ok());
  ASSERT_TRUE(client.remove("a").ok());
  svc.drain();

  const obs::MetricsSnapshot snap = svc.registry().snapshot();
  const service::ServiceStats stats = svc.stats();
  ASSERT_FALSE(snap.counters.empty());
  for (const auto& [name, value] : snap.counters) {
    ASSERT_EQ(stats.metrics.count(name), 1u) << name;
    EXPECT_DOUBLE_EQ(stats.metrics.at(name), static_cast<double>(value))
        << name;
  }
  for (const auto& [name, value] : snap.gauges) {
    ASSERT_EQ(stats.metrics.count(name), 1u) << name;
    EXPECT_DOUBLE_EQ(stats.metrics.at(name), value) << name;
  }
  // The named legacy fields read from the same registry.
  EXPECT_EQ(stats.submits, snap.counter_or("service.submits"));
  EXPECT_EQ(stats.removes, snap.counter_or("service.removes"));
  EXPECT_EQ(stats.admitted, snap.counter_or("service.admitted"));
  EXPECT_EQ(stats.batches, snap.counter_or("service.batches"));
  // The latency histogram recorded both requests.
  const obs::Histogram* lat =
      svc.registry().find_histogram("service.admission_latency.us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), 2u);
}

// ---------------------------------------------------------------------------
// Concurrency stress (the TSan target: CI runs this under
// -DSPARCLE_SANITIZE=thread)

TEST(SchedulerService, ConcurrentMixedTrafficStaysConsistent) {
  constexpr std::size_t kSubmitThreads = 4;
  constexpr std::size_t kAppsPerThread = 24;
  constexpr std::size_t kQueryThreads = 2;

  ServiceOptions options;
  options.max_batch = 8;
  options.validate_batches = true;  // invariant-check every snapshot
  SchedulerService svc(make_star_net(8, 400.0, 60.0), SchedulerOptions{},
                       options);

  std::atomic<bool> stop_readers{false};
  std::atomic<std::uint64_t> admitted{0}, rejected{0}, removed{0};

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kSubmitThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t j = 0; j < kAppsPerThread; ++j) {
        const std::string name =
            "t" + std::to_string(t) + "_a" + std::to_string(j);
        const NcpId src = 1 + static_cast<NcpId>((t + j) % 8);
        const NcpId dst = 1 + static_cast<NcpId>((t + 3 * j + 1) % 8);
        QoeSpec qoe = (j % 3 == 0) ? QoeSpec::guaranteed_rate(0.2, 0.0)
                                   : QoeSpec::best_effort(1.0 + (j % 4));
        const ServiceResult r =
            svc.submit(make_star_app(name, qoe, src,
                                     dst == src ? 1 + (dst % 8) : dst, 2.0))
                .get();
        if (r.status == ServiceResult::Status::kAdmitted) {
          ++admitted;
          if (j % 2 == 0) {
            if (svc.remove(name).get().status ==
                ServiceResult::Status::kRemoved)
              ++removed;
          }
        } else {
          ++rejected;
        }
      }
    });
  }
  for (std::size_t q = 0; q < kQueryThreads; ++q) {
    threads.emplace_back([&] {
      std::uint64_t last_version = 0;
      while (!stop_readers.load(std::memory_order_relaxed)) {
        const auto snap = svc.snapshot();
        EXPECT_GE(snap->version, last_version);  // versions never regress
        last_version = snap->version;
        for (const service::AppView& view : snap->apps)
          EXPECT_FALSE(view.name.empty());
        (void)svc.stats();
        (void)svc.queue_depth();
        std::this_thread::yield();
      }
    });
  }
  for (std::size_t t = 0; t < kSubmitThreads; ++t) threads[t].join();
  stop_readers.store(true);
  for (std::size_t q = 0; q < kQueryThreads; ++q)
    threads[kSubmitThreads + q].join();

  svc.drain();
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.invariant_violations, 0u) << stats.first_violation;
  EXPECT_EQ(stats.submits, kSubmitThreads * kAppsPerThread);
  EXPECT_EQ(stats.admitted, admitted.load());
  EXPECT_EQ(stats.rejected, rejected.load());
  EXPECT_EQ(stats.queue_full, 0u);

  // Every admitted-and-not-removed app is visible in the final snapshot.
  const auto snap = svc.snapshot();
  EXPECT_EQ(snap->apps.size(), admitted.load() - removed.load());
  std::set<std::string> names;
  for (const service::AppView& view : snap->apps)
    EXPECT_TRUE(names.insert(view.name).second) << "duplicate " << view.name;
  EXPECT_EQ(snap->version, stats.batches);
  svc.stop();
}

// ---------------------------------------------------------------------------
// Admission-ordering policy (SchedulingPolicy::admission_key, decision
// point 1)

/// Per-submit (status, rate) plus the final admission-order snapshot —
/// the comparable trace of the service's ordering decisions.
using PolicyTrace =
    std::pair<std::vector<std::pair<ServiceResult::Status, double>>,
              std::vector<std::pair<std::string, double>>>;

/// A mixed GR/BE workload on make_star_net(4, 10, 1): the GR demand sums
/// past the hub capacity (4 + 3 + 2 + 3 > 10), so WHICH app rejects
/// depends entirely on the admission order; the BE pair's PF split rides
/// on what admitted before them.
std::vector<Application> policy_trace_apps() {
  const double mids[] = {4.0, 3.0, 2.0, 3.0};
  std::vector<Application> apps;
  for (int i = 0; i < 4; ++i)
    apps.push_back(make_star_app("gr" + std::to_string(i),
                                 QoeSpec::guaranteed_rate(1.0, 0.0), 1, 2,
                                 mids[i]));
  for (int i = 0; i < 2; ++i)
    apps.push_back(make_star_app("be" + std::to_string(i),
                                 QoeSpec::best_effort(1.0 + i), 3, 4, 1.0));
  return apps;
}

/// Stages policy_trace_apps() in one paused batch under `policy`.
PolicyTrace run_policy_trace(
    std::shared_ptr<const policy::SchedulingPolicy> policy) {
  SchedulerOptions sched;
  sched.policy = std::move(policy);
  ServiceOptions options;
  options.max_batch = 16;
  options.start_paused = true;
  SchedulerService svc(make_star_net(4, 10.0, 1.0), sched, options);
  std::vector<std::future<ServiceResult>> futures;
  for (const Application& app : policy_trace_apps())
    futures.push_back(svc.submit(app));
  svc.resume();

  PolicyTrace trace;
  for (auto& f : futures) {
    const ServiceResult r = f.get();
    trace.first.emplace_back(r.status, r.rate);
  }
  for (const auto& view : svc.snapshot()->apps)
    trace.second.emplace_back(view.name, view.allocated_rate);
  svc.stop();
  return trace;
}

/// The same trace from a bare Scheduler that applies policy_trace_apps()
/// inside one batch in the order the old FIFO scan popped them
/// (admission_scan.hpp: GR class before BE class, each in arrival order).
PolicyTrace reference_fifo_trace() {
  const std::vector<Application> apps = policy_trace_apps();
  testutil::ScanQueues scan;
  for (std::size_t i = 0; i < apps.size(); ++i)
    scan.push({apps[i].qoe.cls == QoeClass::kGuaranteedRate ? 1u : 2u, i,
               policy::PendingApp{.app = &apps[i]}});
  Scheduler sched(make_star_net(4, 10.0, 1.0));
  std::vector<AdmissionResult> admissions(apps.size());
  sched.begin_batch();
  while (!scan.empty()) {
    const std::size_t i = scan.pop("default");
    admissions[i] = sched.submit(apps[i]);
  }
  EXPECT_TRUE(sched.end_batch().evicted.empty());

  PolicyTrace trace;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    double rate = admissions[i].rate;
    if (admissions[i].admitted &&
        apps[i].qoe.cls == QoeClass::kBestEffort)
      for (const PlacedApp& placed : sched.placed())
        if (placed.app.name == apps[i].name) rate = placed.allocated_rate;
    trace.first.emplace_back(admissions[i].admitted
                                 ? ServiceResult::Status::kAdmitted
                                 : ServiceResult::Status::kRejected,
                             rate);
  }
  for (const PlacedApp& placed : sched.placed())
    trace.second.emplace_back(placed.app.name, placed.allocated_rate);
  return trace;
}

TEST(ServicePolicy, DefaultPolicyIsBitIdenticalToNoPolicy) {
  // A null policy and DefaultPolicy must both apply the staged batch
  // exactly as the FIFO scan orders it: same statuses, same rates (exact
  // ==, no tolerance), same admission order.
  const PolicyTrace reference = reference_fifo_trace();
  const PolicyTrace null_policy = run_policy_trace(nullptr);
  const PolicyTrace dflt =
      run_policy_trace(std::make_shared<policy::DefaultPolicy>());
  EXPECT_EQ(null_policy.first, reference.first);
  EXPECT_EQ(null_policy.second, reference.second);
  EXPECT_EQ(dflt.first, reference.first);
  EXPECT_EQ(dflt.second, reference.second);
}

TEST(ServicePolicy, ShortestJobFirstReordersAStagedBatch) {
  SchedulerOptions sched;
  sched.policy = std::make_shared<policy::ShortestJobFirstPolicy>();
  ServiceOptions options;
  options.max_batch = 16;
  options.start_paused = true;
  SchedulerService svc(make_star_net(4, 10.0, 1.0), sched, options);

  // Arrival order big, s1, s2 — SJF must admit the small ones first.
  std::vector<std::future<ServiceResult>> futures;
  futures.push_back(svc.submit(
      make_star_app("big", QoeSpec::guaranteed_rate(1.0, 0.0), 1, 2, 8.0)));
  futures.push_back(svc.submit(
      make_star_app("s1", QoeSpec::guaranteed_rate(1.0, 0.0), 2, 3, 1.0)));
  futures.push_back(svc.submit(
      make_star_app("s2", QoeSpec::guaranteed_rate(1.0, 0.0), 3, 4, 1.0)));
  svc.resume();
  for (auto& f : futures)
    EXPECT_EQ(f.get().status, ServiceResult::Status::kAdmitted);

  const auto snap = svc.snapshot();
  ASSERT_EQ(snap->apps.size(), 3u);
  EXPECT_EQ(snap->apps[0].name, "s1");
  EXPECT_EQ(snap->apps[1].name, "s2");
  EXPECT_EQ(snap->apps[2].name, "big");
}

// ---------------------------------------------------------------------------
// WorkerPool::resolve_threads (satellite: SPARCLE_THREADS knob)

TEST(WorkerPool, ResolveThreadsHonorsExplicitRequestFirst) {
  ::setenv("SPARCLE_THREADS", "3", 1);
  EXPECT_EQ(WorkerPool::resolve_threads(2), 2u);  // explicit beats env
  ::unsetenv("SPARCLE_THREADS");
}

TEST(WorkerPool, ResolveThreadsReadsEnvOverride) {
  ::setenv("SPARCLE_THREADS", "3", 1);
  EXPECT_EQ(WorkerPool::resolve_threads(0), 3u);
  EXPECT_EQ(WorkerPool::resolve_threads(0, /*cap=*/2), 3u);  // env beats cap
  ::setenv("SPARCLE_THREADS", "garbage", 1);
  EXPECT_GE(WorkerPool::resolve_threads(0), 1u);  // unparsable: fall through
  ::unsetenv("SPARCLE_THREADS");
}

TEST(WorkerPool, ResolveThreadsDefaultsToHardwareWithOptionalCap) {
  ::unsetenv("SPARCLE_THREADS");
  const unsigned uncapped = WorkerPool::resolve_threads(0);
  EXPECT_GE(uncapped, 1u);
  EXPECT_LE(WorkerPool::resolve_threads(0, 2), 2u);
  EXPECT_GE(WorkerPool::resolve_threads(0, 2), 1u);
}

}  // namespace
}  // namespace sparcle
