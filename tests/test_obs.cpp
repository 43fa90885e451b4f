#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "core/sparcle_assigner.hpp"
#include "workload/scenarios.hpp"

namespace sparcle {
namespace {

using namespace obs;

// ---------------------------------------------------------------------------
// A minimal JSON parser — just enough to round-trip the registry and trace
// snapshots, so the tests check real machine-readability rather than
// substring presence.

struct Json {
  enum class Type { kNull, kNumber, kString, kArray, kObject } type{
      Type::kNull};
  double number{0.0};
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  const Json& at(const std::string& key) const {
    const auto it = object.find(key);
    if (it == object.end()) throw std::runtime_error("missing key " + key);
    return it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Json parse() {
    const Json v = value();
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing junk");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\t' || s_[pos_] == '\r'))
      ++pos_;
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c)
      throw std::runtime_error(std::string("expected ") + c + " got " +
                               s_[pos_]);
    ++pos_;
  }

  Json value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        Json v;
        v.type = Json::Type::kString;
        v.string = string();
        return v;
      }
      default: return number();
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) ++pos_;
      out.push_back(s_[pos_++]);
    }
    expect('"');
    return out;
  }

  Json number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) throw std::runtime_error("bad number");
    Json v;
    v.type = Json::Type::kNumber;
    v.number = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  Json array() {
    expect('[');
    Json v;
    v.type = Json::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Json object() {
    expect('{');
    Json v;
    v.type = Json::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      const std::string key = string();
      expect(':');
      v.object.emplace(key, value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  const std::string& s_;
  std::size_t pos_{0};
};

// ---------------------------------------------------------------------------
// Metrics registry

TEST(Metrics, JsonSnapshotRoundTrips) {
  MetricsRegistry reg;
  reg.counter("requests").add(3);
  reg.counter("requests").add(4);
  reg.gauge("load").set(2.5);
  Histogram& h = reg.histogram("latency", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);

  const Json root = JsonParser(reg.to_json()).parse();
  EXPECT_EQ(root.at("counters").at("requests").number, 7.0);
  EXPECT_EQ(root.at("gauges").at("load").number, 2.5);
  const Json& lat = root.at("histograms").at("latency");
  ASSERT_EQ(lat.at("bounds").array.size(), 2u);
  EXPECT_EQ(lat.at("bounds").array[0].number, 1.0);
  EXPECT_EQ(lat.at("bounds").array[1].number, 10.0);
  ASSERT_EQ(lat.at("buckets").array.size(), 3u);  // 2 bounds + overflow
  EXPECT_EQ(lat.at("buckets").array[0].number, 1.0);
  EXPECT_EQ(lat.at("buckets").array[1].number, 1.0);
  EXPECT_EQ(lat.at("buckets").array[2].number, 1.0);
  EXPECT_EQ(lat.at("count").number, 3.0);
  EXPECT_NEAR(lat.at("sum").number, 55.5, 1e-12);
}

TEST(Metrics, HistogramBucketBoundariesAreInclusive) {
  Histogram h({1.0, 10.0, 100.0});
  // Bucket i counts x <= bounds[i] (first matching bound).
  h.observe(0.5);    // bucket 0
  h.observe(1.0);    // bucket 0: x <= 1
  h.observe(1.0001); // bucket 1
  h.observe(10.0);   // bucket 1: x <= 10
  h.observe(100.0);  // bucket 2
  h.observe(100.5);  // overflow
  ASSERT_EQ(h.bucket_count(), 4u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_NEAR(h.sum(), 213.0001, 1e-9);
}

TEST(Metrics, FirstHistogramRegistrationWins) {
  MetricsRegistry reg;
  Histogram& a = reg.histogram("h", {1.0, 2.0});
  Histogram& b = reg.histogram("h", {5.0});  // bounds ignored
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.bounds().size(), 2u);
  EXPECT_EQ(reg.find_histogram("h"), &a);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);
}

TEST(Metrics, CsvSnapshotListsEveryInstrument) {
  MetricsRegistry reg;
  reg.counter("c").add(2);
  reg.gauge("g").set(1.5);
  reg.histogram("h", {1.0}).observe(0.5);
  const std::string csv = reg.to_csv();
  EXPECT_NE(csv.find("counter,c,value,2"), std::string::npos);
  EXPECT_NE(csv.find("gauge,g,value,1.5"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h,le_1,1"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h,le_inf,0"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h,count,1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Scoped timers and the Chrome trace

TEST(ChromeTrace, NestedTimersProduceWellFormedTrace) {
  ChromeTraceCollector trace;
  MetricsRegistry reg;
  {
    Observability o;
    o.trace = &trace;
    o.metrics = &reg;
    ScopedInstall session(o);
    ScopedTimer outer("outer");
    {
      ScopedTimer inner("inner");
    }
  }
  ASSERT_EQ(trace.event_count(), 2u);

  const Json root = JsonParser(trace.to_json()).parse();
  const auto& events = root.at("traceEvents").array;
  ASSERT_EQ(events.size(), 2u);
  const Json* outer = nullptr;
  const Json* inner = nullptr;
  for (const Json& e : events) {
    EXPECT_EQ(e.at("ph").string, "X");
    EXPECT_EQ(e.at("pid").number, 1.0);
    if (e.at("name").string == "outer") outer = &e;
    if (e.at("name").string == "inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Same thread, and the inner interval is contained in the outer one —
  // chrome://tracing renders exactly this containment as nesting.
  EXPECT_EQ(outer->at("tid").number, inner->at("tid").number);
  const double out_ts = outer->at("ts").number;
  const double out_end = out_ts + outer->at("dur").number;
  const double in_ts = inner->at("ts").number;
  const double in_end = in_ts + inner->at("dur").number;
  EXPECT_LE(out_ts, in_ts + 1e-9);
  EXPECT_LE(in_end, out_end + 1e-9);

  // The timers also landed duration histograms in the registry.
  const Histogram* h = reg.find_histogram("outer.us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  ASSERT_NE(reg.find_histogram("inner.us"), nullptr);
}

TEST(ChromeTrace, TimersAreNoOpsWithNothingInstalled) {
  uninstall();
  {
    ScopedTimer t("ignored");
  }
  ChromeTraceCollector trace;
  EXPECT_EQ(trace.event_count(), 0u);
  EXPECT_EQ(metrics(), nullptr);
  EXPECT_EQ(trace_collector(), nullptr);
  EXPECT_EQ(decision_log(), nullptr);
}

TEST(Obs, ScopedInstallRestoresPreviousSinks) {
  uninstall();
  MetricsRegistry outer_reg;
  Observability o;
  o.metrics = &outer_reg;
  install(o);
  {
    MetricsRegistry inner_reg;
    Observability i;
    i.metrics = &inner_reg;
    ScopedInstall session(i);
    EXPECT_EQ(metrics(), &inner_reg);
  }
  EXPECT_EQ(metrics(), &outer_reg);
  uninstall();
  EXPECT_EQ(metrics(), nullptr);
}

// ---------------------------------------------------------------------------
// Decision log

TEST(DecisionLog, CsvEscapesAndKeepsOrder) {
  DecisionLog log;
  log.record(DecisionKind::kPathAdd, "cam", "GR", "path 1: rate ok", 2.0,
             0.9, 1);
  log.record(DecisionKind::kAdmit, "cam", "GR", "QoE target met (rate 2, 1 path(s))",
             2.0, 0.9, 1);
  log.record(DecisionKind::kReject, "bulk", "BE", "", 0.0, 0.0, 0);
  EXPECT_EQ(log.size(), 3u);

  const std::string csv = log.to_csv();
  EXPECT_EQ(csv.find(DecisionLog::kCsvHeader), 0u);
  // Reason with a comma is double-quoted (RFC 4180).
  EXPECT_NE(csv.find("\"QoE target met (rate 2, 1 path(s))\""),
            std::string::npos);
  // Empty reasons are never emitted empty.
  EXPECT_NE(csv.find("(unspecified)"), std::string::npos);

  const auto rows = log.snapshot();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].seq, 0u);
  EXPECT_EQ(rows[1].seq, 1u);
  EXPECT_EQ(rows[2].seq, 2u);
  EXPECT_EQ(rows[0].kind, DecisionKind::kPathAdd);
  EXPECT_EQ(rows[2].kind, DecisionKind::kReject);
}

TEST(DecisionLog, QueueRejectRowsRoundTripThroughCsv) {
  DecisionLog log;
  log.record(DecisionKind::kQueueReject, "burst42", "BE",
             "queue_full: 1024/1024 requests queued", 0.0, 0.0, 0);
  log.record(DecisionKind::kQueueReject, "late7", "GR",
             "deadline_exceeded: waited 1507us in queue", 0.0, 0.0, 0);

  EXPECT_STREQ(to_string(DecisionKind::kQueueReject), "queue_reject");

  const std::string csv = log.to_csv();
  // Kind column, app, and both reason strings survive the CSV sink (the
  // comma-free reasons stay unquoted).
  EXPECT_NE(csv.find("queue_reject,burst42,BE,queue_full: 1024/1024"),
            std::string::npos)
      << csv;
  EXPECT_NE(csv.find("queue_reject,late7,GR,deadline_exceeded:"),
            std::string::npos)
      << csv;

  const auto rows = log.snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].kind, DecisionKind::kQueueReject);
  EXPECT_EQ(rows[1].kind, DecisionKind::kQueueReject);
  EXPECT_EQ(rows[0].reason, "queue_full: 1024/1024 requests queued");
  EXPECT_EQ(rows[1].app, "late7");
}

TEST(DecisionLog, CapacityCapDropsOldestAndKeepsSeqMonotone) {
  MetricsRegistry reg;
  Observability sinks;
  sinks.metrics = &reg;
  ScopedInstall session(sinks);

  DecisionLog log;
  log.set_capacity(2);
  for (int i = 0; i < 5; ++i)
    log.record(DecisionKind::kAdmit, "app" + std::to_string(i), "BE", "ok",
               1.0, 1.0, 1);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 3u);
  const auto rows = log.snapshot();
  ASSERT_EQ(rows.size(), 2u);
  // The newest rows survive; seq stays globally monotone across drops so
  // gaps are detectable in an exported audit window.
  EXPECT_EQ(rows[0].app, "app3");
  EXPECT_EQ(rows[0].seq, 3u);
  EXPECT_EQ(rows[1].seq, 4u);
  // Drops are mirrored to the installed registry.
  EXPECT_EQ(reg.snapshot().counter_or("decision_log.dropped"), 3u);

  // Shrinking evicts eagerly; a zero cap drops everything recorded.
  log.set_capacity(1);
  EXPECT_EQ(log.size(), 1u);
  log.set_capacity(0);
  EXPECT_EQ(log.size(), 0u);
  log.record(DecisionKind::kAdmit, "x", "BE", "ok", 1.0, 1.0, 1);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 6u);
}

TEST(DecisionLog, RowsCarryTheActiveThreadTraceId) {
  DecisionLog log;
  {
    ScopedTrace scope(42);
    log.record(DecisionKind::kAdmit, "a", "BE", "ok", 1.0, 1.0, 1);
  }
  log.record(DecisionKind::kAdmit, "b", "BE", "ok", 1.0, 1.0, 1);
  const auto rows = log.snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].trace, 42u);
  EXPECT_EQ(rows[1].trace, 0u);  // outside the scope the id is restored
  // The id is the trailing CSV column.
  const std::string csv = log.to_csv();
  EXPECT_NE(csv.find(",42\n"), std::string::npos) << csv;
}

TEST(ChromeTrace, CapacityCapKeepsTheNewestEvents) {
  MetricsRegistry reg;
  Observability sinks;
  sinks.metrics = &reg;
  ScopedInstall session(sinks);

  ChromeTraceCollector trace;
  trace.set_capacity(3);
  for (int i = 0; i < 7; ++i)
    trace.record_complete("e" + std::to_string(i), i * 10.0, 1.0);
  EXPECT_EQ(trace.event_count(), 3u);
  EXPECT_EQ(trace.dropped(), 4u);
  const std::string json = trace.to_json();
  EXPECT_EQ(json.find("\"name\": \"e0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"e6\""), std::string::npos);
  EXPECT_EQ(reg.snapshot().counter_or("trace.dropped"), 4u);

  // A zero cap records nothing (but still counts the attempts).
  trace.set_capacity(0);
  EXPECT_EQ(trace.event_count(), 0u);
  trace.record_flow("flow", 0.0, /*start=*/true, 9);
  EXPECT_EQ(trace.event_count(), 0u);
  EXPECT_EQ(trace.dropped(), 8u);
}

// ---------------------------------------------------------------------------
// End-to-end: assigner counters match the known call pattern

/// With kMostConstrainedFirst and U unplaced CTs, one assign() runs U
/// ranking rounds, each evaluating every still-unplaced CT once and
/// committing one.  Installing a registry records that and nothing else:
/// the placement equals an uninstrumented run's.  (The name is kept from
/// when a γ memo had counters of its own, so the test's ID stays stable.)
TEST(ObsE2E, AssignerMemoCountersMatchCallPattern) {
  Rng rng(7);
  workload::ScenarioSpec spec;
  spec.topology = workload::TopologyKind::kStar;
  spec.graph = workload::GraphKind::kDiamond;
  spec.bottleneck = workload::BottleneckCase::kBalanced;
  const workload::Scenario sc = workload::make_scenario(spec, rng);
  const AssignmentProblem p = sc.problem();
  const std::uint64_t u =
      static_cast<std::uint64_t>(sc.graph->ct_count() - sc.pinned.size());
  ASSERT_GE(u, 2u);

  SparcleAssignerOptions opt;
  opt.ranking = SparcleAssignerOptions::Ranking::kMostConstrainedFirst;
  opt.eval_threads = 1;

  MetricsRegistry reg;
  AssignmentResult traced;
  {
    Observability o;
    o.metrics = &reg;
    ScopedInstall session(o);
    traced = SparcleAssigner(opt).assign(p);
  }
  ASSERT_TRUE(traced.feasible) << traced.message;
  const Json root = JsonParser(reg.to_json()).parse();
  const auto& c = root.at("counters");
  EXPECT_EQ(c.at("assigner.assigns").number, 1.0);
  EXPECT_EQ(c.at("assigner.ranking_rounds").number, static_cast<double>(u));

  const AssignmentResult plain = SparcleAssigner(opt).assign(p);
  for (CtId i = 0; i < static_cast<CtId>(sc.graph->ct_count()); ++i)
    EXPECT_EQ(traced.placement.ct_host(i), plain.placement.ct_host(i));
}

/// The default kBestOfBoth ranking is one assign(): one count, one span
/// and one histogram observation.  Its two passes share at least their
/// first round, so the call runs between U and 2U rounds and evaluates at
/// least U·N fewer γ than the two passes run as separate assigns.
TEST(ObsE2E, BestOfBothIsOneAssign) {
  using Ranking = SparcleAssignerOptions::Ranking;
  Rng rng(7);
  workload::ScenarioSpec spec;
  spec.topology = workload::TopologyKind::kStar;
  spec.graph = workload::GraphKind::kDiamond;
  spec.bottleneck = workload::BottleneckCase::kBalanced;
  const workload::Scenario sc = workload::make_scenario(spec, rng);
  const AssignmentProblem p = sc.problem();
  const auto u =
      static_cast<std::uint64_t>(sc.graph->ct_count() - sc.pinned.size());
  const auto n = static_cast<std::uint64_t>(sc.net.ncp_count());
  ASSERT_GE(u, 2u);

  struct Counts {
    std::uint64_t assigns, rounds, gammas, spans, observations;
  };
  const auto run = [&](Ranking ranking) {
    SparcleAssignerOptions opt;
    opt.ranking = ranking;
    MetricsRegistry reg;
    ChromeTraceCollector trace;
    {
      Observability o;
      o.metrics = &reg;
      o.trace = &trace;
      ScopedInstall session(o);
      EXPECT_TRUE(SparcleAssigner(opt).assign(p).feasible);
    }
    const Histogram* us = reg.find_histogram("assigner.assign.us");
    return Counts{reg.counter("assigner.assigns").value(),
                  reg.counter("assigner.ranking_rounds").value(),
                  reg.counter("assigner.gamma_evals").value(),
                  trace.event_count(), us == nullptr ? 0 : us->count()};
  };
  const Counts both = run(Ranking::kBestOfBoth);
  EXPECT_EQ(both.assigns, 1u);
  EXPECT_EQ(both.spans, 1u);
  EXPECT_EQ(both.observations, 1u);
  EXPECT_GE(both.rounds, u);
  EXPECT_LE(both.rounds, 2 * u);

  const Counts argmin = run(Ranking::kMostConstrainedFirst);
  const Counts argmax = run(Ranking::kLeastConstrainedFirst);
  EXPECT_EQ(argmin.rounds, u);
  EXPECT_EQ(argmax.rounds, u);
  EXPECT_LE(both.gammas + u * n, argmin.gammas + argmax.gammas);
}

// ---------------------------------------------------------------------------
// End-to-end: scheduler decisions and spans

TEST(ObsE2E, SchedulerEmitsDecisionRowsAndNestedSpans) {
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("src", ResourceVector::scalar(1.0));
  net.add_ncp("relay", ResourceVector::scalar(10.0));
  net.add_ncp("dst", ResourceVector::scalar(1.0));
  net.add_link("sr", 0, 1, 1000.0);
  net.add_link("rd", 1, 2, 1000.0);

  auto graph = std::make_shared<TaskGraph>(ResourceSchema::cpu_only());
  const CtId s = graph->add_ct("source", ResourceVector::scalar(0));
  const CtId m = graph->add_ct("mid", ResourceVector::scalar(5));
  const CtId t = graph->add_ct("sink", ResourceVector::scalar(0));
  graph->add_tt("sm", 1.0, s, m);
  graph->add_tt("mt", 1.0, m, t);
  graph->finalize();

  MetricsRegistry reg;
  ChromeTraceCollector trace;
  DecisionLog decisions;
  {
    Observability o;
    o.metrics = &reg;
    o.trace = &trace;
    o.decisions = &decisions;
    ScopedInstall session(o);

    Scheduler sched(net);
    Application ok;
    ok.name = "ok";
    ok.graph = graph;
    ok.qoe = QoeSpec::best_effort(1.0);
    ok.pinned = {{s, 0}, {t, 2}};
    ASSERT_TRUE(sched.submit(ok).admitted);

    Application greedy;
    greedy.name = "greedy";
    greedy.graph = graph;
    greedy.qoe = QoeSpec::guaranteed_rate(1e6, 0.5);  // impossible rate
    greedy.pinned = {{s, 0}, {t, 2}};
    ASSERT_FALSE(sched.submit(greedy).admitted);
  }

  // One admit row (+ its path rows) and one reject row, reasons non-empty.
  std::size_t admits = 0, rejects = 0, path_adds = 0;
  for (const Decision& d : decisions.snapshot()) {
    EXPECT_FALSE(d.reason.empty());
    switch (d.kind) {
      case DecisionKind::kAdmit:
        ++admits;
        EXPECT_EQ(d.app, "ok");
        EXPECT_EQ(d.qoe, "BE");
        break;
      case DecisionKind::kReject:
        ++rejects;
        EXPECT_EQ(d.app, "greedy");
        EXPECT_EQ(d.qoe, "GR");
        break;
      case DecisionKind::kPathAdd: ++path_adds; break;
      default: break;  // repair / queue_reject rows: other tests' domain
    }
  }
  EXPECT_EQ(admits, 1u);
  EXPECT_EQ(rejects, 1u);
  EXPECT_GE(path_adds, 1u);

  EXPECT_EQ(reg.counter("scheduler.submits").value(), 2u);
  EXPECT_EQ(reg.counter("scheduler.admitted").value(), 1u);
  EXPECT_EQ(reg.counter("scheduler.rejected").value(), 1u);
  // Every PF solve records its factor size beside its Newton iterations.
  const Histogram* factor =
      reg.find_histogram("scheduler.solver.factor_entries");
  ASSERT_NE(factor, nullptr);
  EXPECT_EQ(factor->count(),
            reg.counter("scheduler.solver.warm_start_misses").value());
  EXPECT_GE(factor->sum(), static_cast<double>(factor->count()));

  // Every assigner span nests inside some scheduler.submit span.
  const Json root = JsonParser(trace.to_json()).parse();
  std::vector<std::pair<double, double>> submits_iv;
  std::vector<std::pair<double, double>> assign_iv;
  for (const Json& e : root.at("traceEvents").array) {
    const double ts = e.at("ts").number;
    const double end = ts + e.at("dur").number;
    if (e.at("name").string == "scheduler.submit")
      submits_iv.emplace_back(ts, end);
    if (e.at("name").string == "assigner.assign")
      assign_iv.emplace_back(ts, end);
  }
  EXPECT_EQ(submits_iv.size(), 2u);
  ASSERT_FALSE(assign_iv.empty());
  for (const auto& [ts, end] : assign_iv) {
    bool contained = false;
    for (const auto& [sts, send] : submits_iv)
      contained = contained || (sts <= ts + 1e-9 && end <= send + 1e-9);
    EXPECT_TRUE(contained);
  }
}

}  // namespace
}  // namespace sparcle
