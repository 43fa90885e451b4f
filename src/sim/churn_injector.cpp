#include "sim/churn_injector.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "obs/obs.hpp"

namespace sparcle::sim {

namespace {

/// SplitMix64 finalizer: decorrelates per-element RNG streams derived from
/// one user seed so adding an element never perturbs the others' draws.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t element_stream(std::uint64_t seed, const ElementKey& e) {
  return mix(mix(seed, static_cast<std::uint64_t>(e.kind)),
             static_cast<std::uint64_t>(e.index));
}

/// Uniform in [0, 1) from the top 53 bits — identical on every standard
/// library (std::uniform_real_distribution is implementation-defined).
double u01(std::mt19937_64& g) {
  return static_cast<double>(g() >> 11) * 0x1.0p-53;
}

/// Exponential with the given mean; strictly positive for u in [0, 1).
double exponential(std::mt19937_64& g, double mean) {
  return -mean * std::log(1.0 - u01(g));
}

double mean_for(const std::unordered_map<ElementKey, double>& overrides,
                const ElementKey& e, double fallback) {
  const auto it = overrides.find(e);
  return it == overrides.end() ? fallback : it->second;
}

void require_positive(double v, const char* what) {
  if (!(v > 0)) throw std::invalid_argument(std::string(what) +
                                            " must be positive");
}

std::vector<ElementKey> participating_elements(const Network& net,
                                               const ChurnModel& model) {
  std::vector<ElementKey> elems;
  if (model.include_ncps)
    for (NcpId j = 0; j < static_cast<NcpId>(net.ncp_count()); ++j)
      elems.push_back(ElementKey::ncp(j));
  if (model.include_links)
    for (LinkId l = 0; l < static_cast<LinkId>(net.link_count()); ++l)
      elems.push_back(ElementKey::link(l));
  return elems;
}

void sort_events(std::vector<ChurnEvent>& events) {
  std::sort(events.begin(), events.end(),
            [](const ChurnEvent& a, const ChurnEvent& b) {
              return std::tie(a.time, a.element, b.fail) <
                     std::tie(b.time, b.element, a.fail);
            });
}

std::string element_label(const Network& net, const ElementKey& e) {
  return e.kind == ElementKey::Kind::kNcp ? "ncp:" + net.ncp(e.index).name
                                          : "link:" + net.link(e.index).name;
}

}  // namespace

ChurnTrace generate_poisson_churn(const Network& net, const ChurnModel& model,
                                  double horizon, std::uint64_t seed) {
  require_positive(model.default_mtbf, "ChurnModel::default_mtbf");
  require_positive(model.default_mttr, "ChurnModel::default_mttr");
  ChurnTrace trace;
  for (const ElementKey& e : participating_elements(net, model)) {
    const double mtbf = mean_for(model.mtbf_override, e, model.default_mtbf);
    const double mttr = mean_for(model.mttr_override, e, model.default_mttr);
    require_positive(mtbf, "ChurnModel MTBF override");
    require_positive(mttr, "ChurnModel MTTR override");
    std::mt19937_64 g(element_stream(seed, e));
    double t = 0;
    for (;;) {
      t += exponential(g, mtbf);
      if (t >= horizon) break;
      trace.events.push_back({t, e, true});
      t += exponential(g, mttr);
      if (t >= horizon) break;  // stays down past the horizon
      trace.events.push_back({t, e, false});
    }
  }
  sort_events(trace.events);
  return trace;
}

ChurnTrace generate_burst_churn(const Network& net,
                                const BurstChurnConfig& config, double horizon,
                                std::uint64_t seed) {
  require_positive(config.model.default_mttr, "ChurnModel::default_mttr");
  ChurnTrace trace;
  if (config.burst_rate <= 0 || net.ncp_count() == 0) return trace;

  std::mt19937_64 g(mix(seed, 0x6275727374ull));  // "burst"
  auto fail_and_recover = [&](const ElementKey& e, double at) {
    if (at >= horizon) return;
    trace.events.push_back({at, e, true});
    const double mttr = mean_for(config.model.mttr_override, e,
                                 config.model.default_mttr);
    require_positive(mttr, "ChurnModel MTTR override");
    const double up = at + exponential(g, mttr);
    if (up < horizon) trace.events.push_back({up, e, false});
  };

  double t = 0;
  for (;;) {
    t += exponential(g, 1.0 / config.burst_rate);
    if (t >= horizon) break;
    // Epicenter NCP plus a spread_prob-thinned topological neighborhood:
    // every incident link and every adjacent NCP.
    const NcpId center = static_cast<NcpId>(
        g() % static_cast<std::uint64_t>(net.ncp_count()));
    fail_and_recover(ElementKey::ncp(center), t);
    for (LinkId l : net.incident_links(center)) {
      if (u01(g) < config.spread_prob)
        fail_and_recover(ElementKey::link(l),
                         t + u01(g) * config.spread_span);
      if (u01(g) < config.spread_prob)
        fail_and_recover(ElementKey::ncp(net.other_end(l, center)),
                         t + u01(g) * config.spread_span);
    }
  }
  sort_events(trace.events);
  return trace;
}

std::string write_churn_trace(const ChurnTrace& trace, const Network& net) {
  std::ostringstream out;
  out.precision(17);  // doubles round-trip exactly
  out << "# SPARCLE churn trace: <verb> <time> <element>\n";
  out << "churn v1\n";
  for (const ChurnEvent& ev : trace.events)
    out << (ev.fail ? "fail    " : "recover ") << ev.time << ' '
        << element_label(net, ev.element) << '\n';
  return out.str();
}

ChurnTrace parse_churn_trace(std::istream& in, const Network& net) {
  std::unordered_map<std::string, NcpId> ncp_by_name;
  std::unordered_map<std::string, LinkId> link_by_name;
  for (NcpId j = 0; j < static_cast<NcpId>(net.ncp_count()); ++j)
    ncp_by_name[net.ncp(j).name] = j;
  for (LinkId l = 0; l < static_cast<LinkId>(net.link_count()); ++l)
    link_by_name[net.link(l).name] = l;

  ChurnTrace trace;
  std::string line;
  std::size_t lineno = 0;
  bool saw_header = false;
  double prev_time = 0;
  auto fail = [&](const std::string& msg) -> std::runtime_error {
    return std::runtime_error("line " + std::to_string(lineno) + ": " + msg);
  };
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string verb;
    if (!(ls >> verb)) continue;  // blank / comment-only line
    if (!saw_header) {
      std::string version;
      if (verb != "churn" || !(ls >> version) || version != "v1")
        throw fail("expected header 'churn v1'");
      saw_header = true;
      continue;
    }
    const bool is_fail = verb == "fail";
    if (!is_fail && verb != "recover")
      throw fail("unknown verb '" + verb + "' (want fail|recover)");
    double time = 0;
    std::string elem;
    if (!(ls >> time >> elem)) throw fail("expected '<time> <element>'");
    if (!(time >= prev_time)) throw fail("timestamps must be non-decreasing");
    prev_time = time;
    const std::size_t colon = elem.find(':');
    if (colon == std::string::npos)
      throw fail("element must be ncp:<name> or link:<name>");
    const std::string kind = elem.substr(0, colon);
    const std::string name = elem.substr(colon + 1);
    ElementKey key;
    if (kind == "ncp") {
      const auto it = ncp_by_name.find(name);
      if (it == ncp_by_name.end()) throw fail("unknown NCP '" + name + "'");
      key = ElementKey::ncp(it->second);
    } else if (kind == "link") {
      const auto it = link_by_name.find(name);
      if (it == link_by_name.end()) throw fail("unknown link '" + name + "'");
      key = ElementKey::link(it->second);
    } else {
      throw fail("element must be ncp:<name> or link:<name>");
    }
    trace.events.push_back({time, key, is_fail});
  }
  if (!saw_header) throw fail("missing header 'churn v1'");
  return trace;
}

ChurnTrace parse_churn_trace_text(const std::string& text,
                                  const Network& net) {
  std::istringstream in(text);
  return parse_churn_trace(in, net);
}

ChurnTrace load_churn_trace_file(const std::string& path, const Network& net) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open churn trace: " + path);
  return parse_churn_trace(in, net);
}

ChurnInjector::ChurnInjector(Scheduler& scheduler, ChurnTrace trace)
    : scheduler_(&scheduler), trace_(std::move(trace)) {
  // Stable: events at the same instant keep their trace order.
  std::stable_sort(trace_.events.begin(), trace_.events.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) {
                     return a.time < b.time;
                   });
}

double ChurnInjector::next_time() const {
  return done() ? 0.0 : trace_.events[next_].time;
}

bool ChurnInjector::step() {
  if (done()) return false;
  const obs::ScopedTimer span("churn.event");
  const ChurnEvent& ev = trace_.events[next_++];
  const bool currently_failed =
      scheduler_->failed_elements().contains(ev.element);
  if (ev.fail == currently_failed) {
    // Burst traces can fail an already-down element; nothing to do.
    ++stats_.redundant;
    return true;
  }
  if (obs::MetricsRegistry* reg = obs::metrics())
    reg->counter(ev.fail ? "churn.failures" : "churn.recoveries").add(1);
  if (ev.fail) {
    scheduler_->mark_failed(ev.element);
    ++stats_.failures;
  } else {
    scheduler_->mark_recovered(ev.element);
    ++stats_.recoveries;
  }
  const Scheduler::RepairReport r = scheduler_->repair(ev.element);
  stats_.apps_touched += r.apps_touched;
  stats_.paths_dropped += r.paths_dropped;
  stats_.paths_added += r.paths_added;
  stats_.retries += r.retries;
  return true;
}

std::size_t ChurnInjector::run_until(double until) {
  std::size_t applied = 0;
  while (!done() && next_time() <= until && step()) ++applied;
  return applied;
}

std::size_t ChurnInjector::run_all() {
  std::size_t applied = 0;
  while (step()) ++applied;
  return applied;
}

}  // namespace sparcle::sim
