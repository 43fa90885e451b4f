#include "check/fuzzer.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/scheduler.hpp"
#include "core/sparcle_assigner.hpp"
#include "model/application.hpp"
#include "model/network.hpp"
#include "model/task_graph.hpp"
#include "policy/policy.hpp"
#include "sim/churn_injector.hpp"

namespace sparcle::check {

namespace {

using workload::ScenarioFile;

/// A scenario decomposed into plain mutable vectors.  Network and
/// TaskGraph are immutable after build, so the generator and the shrinker
/// both work on this form and materialize through rebuild().
struct EditableApp {
  std::string name;
  QoeSpec qoe;
  std::map<CtId, NcpId> pinned;
  std::vector<ComputeTask> cts;
  std::vector<TransportTask> tts;
};

struct EditableScenario {
  ResourceSchema schema;
  std::vector<Ncp> ncps;
  std::vector<Link> links;
  std::vector<EditableApp> apps;
};

EditableScenario decompose(const ScenarioFile& s) {
  EditableScenario e;
  e.schema = s.net.schema();
  for (NcpId j = 0; j < static_cast<NcpId>(s.net.ncp_count()); ++j)
    e.ncps.push_back(s.net.ncp(j));
  for (LinkId l = 0; l < static_cast<LinkId>(s.net.link_count()); ++l)
    e.links.push_back(s.net.link(l));
  for (const Application& app : s.apps) {
    EditableApp a;
    a.name = app.name;
    a.qoe = app.qoe;
    a.pinned = app.pinned;
    for (CtId i = 0; i < static_cast<CtId>(app.graph->ct_count()); ++i)
      a.cts.push_back(app.graph->ct(i));
    for (TtId k = 0; k < static_cast<TtId>(app.graph->tt_count()); ++k)
      a.tts.push_back(app.graph->tt(k));
    e.apps.push_back(std::move(a));
  }
  return e;
}

/// Materializes an edited scenario; nullopt when any model-layer validity
/// rule rejects it (the shrinker treats that as "candidate not viable").
std::optional<ScenarioFile> rebuild(const EditableScenario& e) {
  try {
    ScenarioFile out;
    out.net = Network(e.schema);
    for (const Ncp& n : e.ncps) out.net.add_ncp(n.name, n.capacity, n.fail_prob);
    for (const Link& l : e.links) {
      if (l.directed)
        out.net.add_directed_link(l.name, l.a, l.b, l.bandwidth, l.fail_prob);
      else
        out.net.add_link(l.name, l.a, l.b, l.bandwidth, l.fail_prob);
    }
    for (const EditableApp& a : e.apps) {
      TaskGraph g(e.schema);
      for (const ComputeTask& ct : a.cts) g.add_ct(ct.name, ct.requirement);
      for (const TransportTask& tt : a.tts)
        g.add_tt(tt.name, tt.bits_per_unit, tt.src, tt.dst);
      g.finalize();
      Application app;
      app.name = a.name;
      app.qoe = a.qoe;
      app.pinned = a.pinned;
      app.graph = std::make_shared<TaskGraph>(std::move(g));
      for (const auto& [ct, j] : app.pinned)
        if (ct < 0 || ct >= static_cast<CtId>(app.graph->ct_count()) ||
            j < 0 || j >= static_cast<NcpId>(out.net.ncp_count()))
          throw std::invalid_argument("pin out of range");
      app.validate();
      out.apps.push_back(std::move(app));
    }
    return out;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

double random_fail_prob(Rng& rng) {
  return rng.bernoulli(0.4) ? rng.uniform(0.01, 0.15) : 0.0;
}

ResourceVector random_vector(Rng& rng, std::size_t nr, double lo, double hi) {
  ResourceVector v(nr);
  for (std::size_t r = 0; r < nr; ++r) v[r] = rng.uniform(lo, hi);
  return v;
}

/// Appends a chain / diamond / vee task graph and pins for one app.
void random_app_graph(Rng& rng, std::size_t nr, std::size_t app_index,
                      std::size_t ncps, EditableApp& app) {
  const std::string prefix = "a" + std::to_string(app_index);
  auto ct_name = [&](std::size_t i) { return prefix + "c" + std::to_string(i); };
  auto tt_name = [&](std::size_t k) { return prefix + "t" + std::to_string(k); };
  auto add_ct = [&] {
    app.cts.push_back(
        {ct_name(app.cts.size()), random_vector(rng, nr, 0.5, 4.0)});
  };
  auto add_tt = [&](CtId src, CtId dst) {
    app.tts.push_back({tt_name(app.tts.size()), rng.uniform(1.0, 10.0),
                       src, dst});
  };
  switch (rng.uniform_int(0, 2)) {
    case 0: {  // chain
      const std::size_t len = static_cast<std::size_t>(rng.uniform_int(2, 4));
      for (std::size_t i = 0; i < len; ++i) add_ct();
      for (std::size_t i = 0; i + 1 < len; ++i)
        add_tt(static_cast<CtId>(i), static_cast<CtId>(i + 1));
      break;
    }
    case 1:  // diamond
      for (std::size_t i = 0; i < 4; ++i) add_ct();
      add_tt(0, 1);
      add_tt(0, 2);
      add_tt(1, 3);
      add_tt(2, 3);
      break;
    default:  // vee: two sources into one sink
      for (std::size_t i = 0; i < 3; ++i) add_ct();
      add_tt(0, 2);
      add_tt(1, 2);
      break;
  }
  // Pin every source and sink (the model requires it); occasionally pin
  // an interior CT too.
  std::vector<int> indeg(app.cts.size(), 0), outdeg(app.cts.size(), 0);
  for (const TransportTask& tt : app.tts) {
    ++outdeg[tt.src];
    ++indeg[tt.dst];
  }
  for (std::size_t i = 0; i < app.cts.size(); ++i) {
    const bool endpoint = indeg[i] == 0 || outdeg[i] == 0;
    if (endpoint || rng.bernoulli(0.2))
      app.pinned[static_cast<CtId>(i)] = static_cast<NcpId>(
          rng.uniform_int(0, static_cast<std::int64_t>(ncps) - 1));
  }
}

std::string signature(const ScenarioVerdict& v) {
  return v.phase + "/" +
         (v.report.violations.empty()
              ? "none"
              : to_string(v.report.violations.front().code));
}

bool fully_pinned_best_effort(const ScenarioFile& s) {
  for (const Application& app : s.apps) {
    if (app.qoe.cls != QoeClass::kBestEffort) return false;
    if (app.pinned.size() != app.graph->ct_count()) return false;
  }
  return true;
}

// ----- shrinker mutations ------------------------------------------------

using Mutation = std::function<std::optional<EditableScenario>()>;

std::optional<EditableScenario> drop_app(EditableScenario e, std::size_t i) {
  e.apps.erase(e.apps.begin() + static_cast<std::ptrdiff_t>(i));
  if (e.apps.empty()) return std::nullopt;  // nothing left to check
  return e;
}

std::optional<EditableScenario> drop_link(EditableScenario e, std::size_t l) {
  e.links.erase(e.links.begin() + static_cast<std::ptrdiff_t>(l));
  return e;
}

std::optional<EditableScenario> drop_ncp(EditableScenario e, NcpId j) {
  for (const EditableApp& a : e.apps)
    for (const auto& [ct, host] : a.pinned)
      if (host == j) return std::nullopt;  // pinned NCPs must stay
  e.ncps.erase(e.ncps.begin() + j);
  std::vector<Link> kept;
  for (Link l : e.links) {
    if (l.a == j || l.b == j) continue;
    if (l.a > j) --l.a;
    if (l.b > j) --l.b;
    kept.push_back(std::move(l));
  }
  e.links = std::move(kept);
  for (EditableApp& a : e.apps) {
    std::map<CtId, NcpId> pins;
    for (const auto& [ct, host] : a.pinned)
      pins[ct] = host > j ? host - 1 : host;
    a.pinned = std::move(pins);
  }
  return e;
}

/// Drops one CT (and its incident TTs); CTs newly exposed as sources or
/// sinks are pinned to the dropped CT's host (or NCP 0) so the app stays
/// model-valid — the reproduction predicate decides whether the semantic
/// change still fails the same way.
std::optional<EditableScenario> drop_ct(EditableScenario e, std::size_t ai,
                                        CtId c) {
  EditableApp& a = e.apps[ai];
  if (a.cts.size() <= 1) return std::nullopt;
  NcpId fallback = 0;
  if (auto it = a.pinned.find(c); it != a.pinned.end()) fallback = it->second;
  a.cts.erase(a.cts.begin() + c);
  std::vector<TransportTask> tts;
  for (TransportTask tt : a.tts) {
    if (tt.src == c || tt.dst == c) continue;
    if (tt.src > c) --tt.src;
    if (tt.dst > c) --tt.dst;
    tts.push_back(std::move(tt));
  }
  a.tts = std::move(tts);
  std::map<CtId, NcpId> pins;
  for (const auto& [ct, host] : a.pinned) {
    if (ct == c) continue;
    pins[ct > c ? ct - 1 : ct] = host;
  }
  a.pinned = std::move(pins);
  std::vector<int> indeg(a.cts.size(), 0), outdeg(a.cts.size(), 0);
  for (const TransportTask& tt : a.tts) {
    ++outdeg[tt.src];
    ++indeg[tt.dst];
  }
  for (std::size_t i = 0; i < a.cts.size(); ++i)
    if ((indeg[i] == 0 || outdeg[i] == 0) &&
        !a.pinned.count(static_cast<CtId>(i)))
      a.pinned[static_cast<CtId>(i)] = fallback;
  return e;
}

/// One roundable numeric field of the scenario.
struct NumericSite {
  std::function<double(const EditableScenario&)> get;
  std::function<void(EditableScenario&, double)> set;
};

std::vector<NumericSite> numeric_sites(const EditableScenario& e) {
  std::vector<NumericSite> sites;
  const std::size_t nr = e.schema.size();
  for (std::size_t j = 0; j < e.ncps.size(); ++j) {
    for (std::size_t r = 0; r < nr; ++r)
      sites.push_back(
          {[j, r](const EditableScenario& s) { return s.ncps[j].capacity[r]; },
           [j, r](EditableScenario& s, double v) { s.ncps[j].capacity[r] = v; }});
    sites.push_back(
        {[j](const EditableScenario& s) { return s.ncps[j].fail_prob; },
         [j](EditableScenario& s, double v) { s.ncps[j].fail_prob = v; }});
  }
  for (std::size_t l = 0; l < e.links.size(); ++l) {
    sites.push_back(
        {[l](const EditableScenario& s) { return s.links[l].bandwidth; },
         [l](EditableScenario& s, double v) { s.links[l].bandwidth = v; }});
    sites.push_back(
        {[l](const EditableScenario& s) { return s.links[l].fail_prob; },
         [l](EditableScenario& s, double v) { s.links[l].fail_prob = v; }});
  }
  for (std::size_t ai = 0; ai < e.apps.size(); ++ai) {
    sites.push_back(
        {[ai](const EditableScenario& s) { return s.apps[ai].qoe.priority; },
         [ai](EditableScenario& s, double v) { s.apps[ai].qoe.priority = v; }});
    sites.push_back(
        {[ai](const EditableScenario& s) {
           return s.apps[ai].qoe.availability;
         },
         [ai](EditableScenario& s, double v) {
           s.apps[ai].qoe.availability = v;
         }});
    sites.push_back(
        {[ai](const EditableScenario& s) { return s.apps[ai].qoe.min_rate; },
         [ai](EditableScenario& s, double v) { s.apps[ai].qoe.min_rate = v; }});
    sites.push_back({[ai](const EditableScenario& s) {
                       return s.apps[ai].qoe.min_rate_availability;
                     },
                     [ai](EditableScenario& s, double v) {
                       s.apps[ai].qoe.min_rate_availability = v;
                     }});
    for (std::size_t ci = 0; ci < e.apps[ai].cts.size(); ++ci)
      for (std::size_t r = 0; r < nr; ++r)
        sites.push_back({[ai, ci, r](const EditableScenario& s) {
                           return s.apps[ai].cts[ci].requirement[r];
                         },
                         [ai, ci, r](EditableScenario& s, double v) {
                           s.apps[ai].cts[ci].requirement[r] = v;
                         }});
    for (std::size_t ti = 0; ti < e.apps[ai].tts.size(); ++ti)
      sites.push_back({[ai, ti](const EditableScenario& s) {
                         return s.apps[ai].tts[ti].bits_per_unit;
                       },
                       [ai, ti](EditableScenario& s, double v) {
                         s.apps[ai].tts[ti].bits_per_unit = v;
                       }});
  }
  return sites;
}

/// Candidate reductions for one shrink round, structural drops first
/// (biggest wins), then number rounding.  Each mutation owns a copy of
/// the current scenario.
std::vector<Mutation> enumerate_mutations(const EditableScenario& cur) {
  std::vector<Mutation> out;
  for (std::size_t i = 0; i < cur.apps.size(); ++i)
    out.push_back([cur, i] { return drop_app(cur, i); });
  for (NcpId j = 0; j < static_cast<NcpId>(cur.ncps.size()); ++j)
    out.push_back([cur, j] { return drop_ncp(cur, j); });
  for (std::size_t l = 0; l < cur.links.size(); ++l)
    out.push_back([cur, l] { return drop_link(cur, l); });
  for (std::size_t ai = 0; ai < cur.apps.size(); ++ai)
    for (CtId c = 0; c < static_cast<CtId>(cur.apps[ai].cts.size()); ++c)
      out.push_back([cur, ai, c] { return drop_ct(cur, ai, c); });
  for (const NumericSite& site : numeric_sites(cur)) {
    const double v = site.get(cur);
    for (const double rounded :
         {std::rint(v), std::rint(v * 10.0) / 10.0}) {
      if (rounded == v) continue;
      out.push_back([cur, site, rounded]() -> std::optional<EditableScenario> {
        EditableScenario next = cur;
        site.set(next, rounded);
        return next;
      });
    }
  }
  return out;
}

}  // namespace

ScenarioFile random_scenario(Rng& rng, const FuzzOptions& options) {
  EditableScenario e;
  e.schema = rng.bernoulli(0.25) ? ResourceSchema::cpu_memory()
                                 : ResourceSchema::cpu_only();
  const std::size_t nr = e.schema.size();
  const std::size_t n = static_cast<std::size_t>(
      rng.uniform_int(2, static_cast<std::int64_t>(std::max<std::size_t>(
                             2, options.max_ncps))));
  for (std::size_t j = 0; j < n; ++j)
    e.ncps.push_back({"n" + std::to_string(j),
                      random_vector(rng, nr, 4.0, 40.0),
                      random_fail_prob(rng), {}});
  // Random spanning tree (connected by construction) ...
  std::size_t link_idx = 0;
  auto add_link = [&](NcpId a, NcpId b, bool directed) {
    e.links.push_back({"l" + std::to_string(link_idx++),
                       rng.uniform(8.0, 80.0), a, b, random_fail_prob(rng),
                       directed});
  };
  for (std::size_t j = 1; j < n; ++j)
    add_link(static_cast<NcpId>(
                 rng.uniform_int(0, static_cast<std::int64_t>(j) - 1)),
             static_cast<NcpId>(j), false);
  // ... plus a few chords, occasionally directed.
  const std::size_t extra =
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n)));
  for (std::size_t i = 0; i < extra; ++i) {
    const NcpId a = static_cast<NcpId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const NcpId b = static_cast<NcpId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    if (a == b) continue;
    add_link(a, b, rng.bernoulli(0.2));
  }
  const std::size_t apps = static_cast<std::size_t>(rng.uniform_int(
      1, static_cast<std::int64_t>(std::max<std::size_t>(1, options.max_apps))));
  for (std::size_t ai = 0; ai < apps; ++ai) {
    EditableApp app;
    app.name = "app" + std::to_string(ai);
    if (rng.bernoulli(0.75)) {
      app.qoe = QoeSpec::best_effort(
          rng.uniform(0.5, 4.0),
          rng.bernoulli(0.3) ? rng.uniform(0.3, 0.8) : 0.0);
    } else {
      app.qoe = QoeSpec::guaranteed_rate(
          rng.uniform(0.05, 0.4),
          rng.bernoulli(0.5) ? rng.uniform(0.2, 0.6) : 0.0);
    }
    random_app_graph(rng, nr, ai, n, app);
    e.apps.push_back(std::move(app));
  }
  std::optional<ScenarioFile> built = rebuild(e);
  if (!built)
    throw std::logic_error("random_scenario produced an invalid scenario");
  return std::move(*built);
}

ScenarioFile random_pinned_tree_scenario(Rng& rng, const FuzzOptions& options) {
  EditableScenario e;
  e.schema = ResourceSchema::cpu_only();
  const std::size_t n = static_cast<std::size_t>(
      rng.uniform_int(2, static_cast<std::int64_t>(std::max<std::size_t>(
                             2, options.max_ncps))));
  for (std::size_t j = 0; j < n; ++j)
    e.ncps.push_back({"n" + std::to_string(j),
                      random_vector(rng, 1, 4.0, 40.0), 0.0, {}});
  for (std::size_t j = 1; j < n; ++j)
    e.links.push_back({"l" + std::to_string(j - 1), rng.uniform(8.0, 80.0),
                       static_cast<NcpId>(rng.uniform_int(
                           0, static_cast<std::int64_t>(j) - 1)),
                       static_cast<NcpId>(j), 0.0, false});
  const std::size_t apps = static_cast<std::size_t>(rng.uniform_int(
      2, static_cast<std::int64_t>(std::max<std::size_t>(2, options.max_apps))));
  for (std::size_t ai = 0; ai < apps; ++ai) {
    EditableApp app;
    app.name = "app" + std::to_string(ai);
    app.qoe = QoeSpec::best_effort(rng.uniform(0.5, 4.0));
    const std::size_t len = static_cast<std::size_t>(rng.uniform_int(2, 3));
    const std::string prefix = "a" + std::to_string(ai);
    for (std::size_t i = 0; i < len; ++i) {
      app.cts.push_back({prefix + "c" + std::to_string(i),
                         random_vector(rng, 1, 0.5, 4.0)});
      // Thm 3 is deterministic only with forced routes, so pin every CT.
      app.pinned[static_cast<CtId>(i)] = static_cast<NcpId>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    }
    for (std::size_t i = 0; i + 1 < len; ++i)
      app.tts.push_back({prefix + "t" + std::to_string(i),
                         rng.uniform(1.0, 10.0), static_cast<CtId>(i),
                         static_cast<CtId>(i + 1)});
    e.apps.push_back(std::move(app));
  }
  std::optional<ScenarioFile> built = rebuild(e);
  if (!built)
    throw std::logic_error(
        "random_pinned_tree_scenario produced an invalid scenario");
  return std::move(*built);
}

ScenarioVerdict run_scenario_checks(const ScenarioFile& s,
                                    const AssignerFactory& factory,
                                    const FuzzOptions& options) {
  ScenarioVerdict verdict;
  SchedulerOptions sched_options;
  // The policy axis: run the scheduler-pipeline phase under the named
  // plugin.  The oracles below keep the default algorithm regardless —
  // they verify optimality claims that only the paper's rule makes.
  if (!options.policy.empty())
    sched_options.policy = std::shared_ptr<const policy::SchedulingPolicy>(
        policy::make_policy(options.policy));
  Scheduler scheduler = factory
                            ? Scheduler(s.net, factory(), sched_options)
                            : Scheduler(s.net, sched_options);
  CheckOptions pristine = options.check;
  pristine.assume_pristine = true;
  auto state_ok_as = [&](const CheckOptions& check, const char* phase) {
    CheckReport report = check_scheduler_state(scheduler, check);
    if (report.ok()) return true;
    verdict.phase = phase;
    verdict.report = std::move(report);
    return false;
  };
  auto state_ok_with = [&](const CheckOptions& check) {
    return state_ok_as(check, "scheduler");
  };
  auto state_ok = [&] { return state_ok_with(options.check); };

  // Deterministic pipeline: submit everything, kill and repair one link,
  // recover it, remove one admitted app — validating after every step.
  std::vector<std::string> admitted;
  for (const Application& app : s.apps) {
    if (scheduler.submit(app).admitted) admitted.push_back(app.name);
    // No failures yet: the strict admission-time invariants apply.
    if (!state_ok_with(pristine)) return verdict;
  }
  if (s.net.link_count() > 0) {
    scheduler.mark_failed(ElementKey::link(0));
    if (!state_ok()) return verdict;
    scheduler.repair(ElementKey::link(0));
    if (!state_ok()) return verdict;
    scheduler.mark_recovered(ElementKey::link(0));
    if (!state_ok()) return verdict;
  }

  // Churn phase: replay a deterministic generated failure/recovery trace
  // through the incremental repair path, running the full invariant suite
  // after every event.  The trace seed is a pure function of the scenario
  // shape and the fuzz seed, so the shrinker's reproduction predicate
  // stays deterministic.
  if (options.churn_events > 0 && s.net.link_count() > 0) {
    sim::ChurnModel model;
    model.default_mtbf = 8.0;
    model.default_mttr = 3.0;
    const std::uint64_t churn_seed =
        options.seed ^ (0x9e3779b97f4a7c15ull *
                        (s.net.ncp_count() + 7 * s.net.link_count() +
                         31 * s.apps.size() + 1));
    sim::ChurnTrace trace =
        sim::generate_poisson_churn(s.net, model, /*horizon=*/40.0,
                                    churn_seed);
    if (trace.events.size() > options.churn_events)
      trace.events.resize(options.churn_events);
    sim::ChurnInjector injector(scheduler, std::move(trace));
    while (injector.step())
      if (!state_ok_as(options.check, "churn")) return verdict;
    // Heal everything the truncated trace left down, repairing after each
    // recovery, so the steps below start from an all-alive network.
    while (!scheduler.failed_elements().empty()) {
      const ElementKey e = *scheduler.failed_elements().begin();
      scheduler.mark_recovered(e);
      scheduler.repair(e);
      if (!state_ok_as(options.check, "churn")) return verdict;
    }
  }
  if (!admitted.empty()) {
    scheduler.remove(admitted.front());
    if (!state_ok()) return verdict;
  }

  if (!options.run_oracles) return verdict;

  auto make_assigner = [&]() -> std::unique_ptr<Assigner> {
    return factory ? factory() : std::make_unique<SparcleAssigner>();
  };
  for (const Application& app : s.apps) {
    AssignmentProblem problem;
    problem.net = &s.net;
    problem.graph = app.graph.get();
    problem.capacities = CapacitySnapshot(s.net);
    problem.pinned = app.pinned;
    const std::unique_ptr<Assigner> assigner = make_assigner();
    if (exhaustively_enumerable(problem, options.oracle)) {
      DifferentialReport diff =
          differential_vs_exhaustive(problem, *assigner, options.oracle);
      if (!diff.report.ok()) {
        verdict.phase = "oracle:differential";
        verdict.report = std::move(diff.report);
        return verdict;
      }
      CheckReport mono =
          oracle_capacity_monotonicity(problem, options.oracle);
      if (!mono.ok()) {
        verdict.phase = "oracle:monotonicity";
        verdict.report = std::move(mono);
        return verdict;
      }
    }
    CheckReport scaling =
        oracle_scaling(problem, *assigner, 4.0, options.oracle);
    if (!scaling.ok()) {
      verdict.phase = "oracle:scaling";
      verdict.report = std::move(scaling);
      return verdict;
    }
    const AssignmentResult result = assigner->assign(problem);
    CheckReport removal =
        oracle_unused_link_removal(problem, result, options.oracle);
    if (!removal.ok()) {
      verdict.phase = "oracle:unused-removal";
      verdict.report = std::move(removal);
      return verdict;
    }
  }

  if (s.apps.size() >= 2 && unique_route_topology(s.net) &&
      fully_pinned_best_effort(s)) {
    std::vector<std::size_t> reversed(s.apps.size());
    for (std::size_t i = 0; i < reversed.size(); ++i)
      reversed[i] = reversed.size() - 1 - i;
    CheckReport order =
        oracle_arrival_order(s, reversed, sched_options, options.oracle);
    if (!order.ok()) {
      verdict.phase = "oracle:arrival-order";
      verdict.report = std::move(order);
      return verdict;
    }
  }
  return verdict;
}

ScenarioFile shrink_failure(const ScenarioFile& scenario,
                            const AssignerFactory& factory,
                            const FuzzOptions& options,
                            const ScenarioVerdict& original) {
  const std::string target = signature(original);
  EditableScenario current = decompose(scenario);
  ScenarioFile best = scenario;
  std::size_t budget = options.shrink_budget;
  bool progress = true;
  while (progress && budget > 0) {
    progress = false;
    for (const Mutation& mutation : enumerate_mutations(current)) {
      if (budget == 0) break;
      std::optional<EditableScenario> candidate = mutation();
      if (!candidate) continue;
      std::optional<ScenarioFile> built = rebuild(*candidate);
      if (!built) continue;
      --budget;
      ScenarioVerdict verdict =
          run_scenario_checks(*built, factory, options);
      if (verdict.failed() && signature(verdict) == target) {
        current = std::move(*candidate);
        best = std::move(*built);
        progress = true;
        break;  // restart enumeration on the smaller scenario
      }
    }
  }
  return best;
}

std::string save_repro(const ScenarioFile& scenario, const std::string& dir,
                       std::uint64_t seed, const std::string& policy) {
  if (dir.empty()) return "";
  const std::string path =
      dir + "/sparcle-fuzz-repro-" + std::to_string(seed) + ".scn";
  std::ofstream out(path);
  if (!out) return "";
  if (!policy.empty()) out << "# policy: " << policy << "\n";
  out << workload::write_scenario(scenario);
  out.close();
  return out.fail() ? "" : path;
}

FuzzOutcome fuzz_scheduler(const FuzzOptions& options,
                           const AssignerFactory& factory) {
  FuzzOutcome outcome;
  for (std::size_t i = 0; i < options.iterations; ++i) {
    // splitmix-style seed mixing keeps per-iteration streams independent
    // while the pair (base seed, iteration) stays reconstructible.
    const std::uint64_t scenario_seed =
        options.seed ^ (0x9e3779b97f4a7c15ull * (i + 1));
    Rng rng(scenario_seed);
    const bool order_iteration =
        options.arrival_order_every > 0 &&
        (i + 1) % options.arrival_order_every == 0;
    const ScenarioFile scenario =
        order_iteration ? random_pinned_tree_scenario(rng, options)
                        : random_scenario(rng, options);
    // Policy axis: an independent stream draws the iteration's plugin,
    // so enabling the axis does not reshuffle the scenario corpus.
    FuzzOptions iter_options = options;
    if (!options.policies.empty()) {
      Rng policy_rng(scenario_seed ^ 0x90116cull);
      iter_options.policy = options.policies[static_cast<std::size_t>(
          policy_rng.uniform_int(
              0, static_cast<std::int64_t>(options.policies.size()) - 1))];
    }
    ScenarioVerdict verdict =
        run_scenario_checks(scenario, factory, iter_options);
    ++outcome.iterations_run;
    if (!verdict.failed()) continue;

    FuzzFailure failure;
    failure.iteration = i;
    failure.scenario_seed = scenario_seed;
    failure.policy = iter_options.policy;
    failure.phase = verdict.phase;
    failure.report = verdict.report;
    failure.scenario = scenario;
    failure.shrunk =
        shrink_failure(scenario, factory, iter_options, verdict);
    failure.repro_path = save_repro(failure.shrunk, options.repro_dir,
                                    scenario_seed, iter_options.policy);
    outcome.failure = std::move(failure);
    return outcome;
  }
  return outcome;
}

}  // namespace sparcle::check
