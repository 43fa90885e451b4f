#include "workload/scenario_io.hpp"

#include <charconv>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

namespace sparcle::workload {

namespace {

/// Threads the source name (file path, "<scenario>", "<app>") through the
/// parser so every error reads `<source>:<line>: ...` and can be clicked
/// like a compiler diagnostic.
struct ParseContext {
  std::string source;

  [[noreturn]] void fail(std::size_t line, const std::string& msg) const {
    throw std::runtime_error(source + ":" + std::to_string(line) + ": " +
                             msg);
  }

  double parse_number(const std::string& tok, std::size_t line,
                      const std::string& what) const {
    try {
      std::size_t consumed = 0;
      const double v = std::stod(tok, &consumed);
      if (consumed != tok.size())
        fail(line, "bad " + what + ": '" + tok + "'");
      return v;
    } catch (const std::logic_error&) {
      fail(line, "bad " + what + ": '" + tok + "'");
    }
  }

  /// Extracts a trailing "fail=<p>" token if present; returns the failure
  /// probability (0 when absent) and erases the token.
  double take_fail_prob(std::vector<std::string>& tokens,
                        std::size_t line) const {
    if (tokens.empty() || tokens.back().rfind("fail=", 0) != 0) return 0.0;
    const std::string value = tokens.back().substr(5);
    tokens.pop_back();
    return parse_number(value, line, "failure probability");
  }

  /// Extracts a trailing "region=<label>" token if present; returns the
  /// region label ("" when absent) and erases the token.  Order with
  /// fail= is free: writers emit `region=` last, but readers strip
  /// whichever trailing token matches first.
  std::string take_region(std::vector<std::string>& tokens) const {
    if (tokens.empty() || tokens.back().rfind("region=", 0) != 0) return {};
    std::string value = tokens.back().substr(7);
    tokens.pop_back();
    return value;
  }
};

/// Splits a line into whitespace-separated tokens, dropping `#` comments.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    if (tok.front() == '#') break;
    tokens.push_back(tok);
  }
  return tokens;
}

/// In-progress `app` block.
struct AppBlock {
  std::string name;
  QoeSpec qoe;
  std::shared_ptr<TaskGraph> graph;
  std::map<std::string, CtId> ct_by_name;
  std::vector<std::pair<std::string, std::string>> pins;  // ct, ncp
  std::size_t start_line{0};
};

/// Shared implementation: a full scenario parse, or — when `base` is given
/// — app blocks only, resolved against the fixed network `*base` (the
/// placement service's wire format; network directives are rejected).
ScenarioFile parse_scenario_impl(std::istream& in, const ParseContext& ctx,
                                 const Network* base) {
  ScenarioFile out;
  std::map<std::string, NcpId> ncp_by_name;
  std::map<std::string, LinkId> link_by_name;
  ResourceSchema schema = ResourceSchema::cpu_only();
  bool schema_set = false;
  bool network_frozen = false;  // set once the first app block starts
  const bool net_fixed = base != nullptr;
  if (net_fixed) {
    out.net = *base;
    schema = base->schema();
    schema_set = true;
    network_frozen = true;
    for (NcpId j = 0; j < static_cast<NcpId>(base->ncp_count()); ++j)
      ncp_by_name[base->ncp(j).name] = j;
  }
  std::unique_ptr<AppBlock> app;

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::vector<std::string> t = tokenize(line);
    if (t.empty()) continue;
    const std::string& cmd = t[0];

    if (cmd == "resources" || cmd == "ncp" || cmd == "link" ||
        cmd == "dlink") {
      if (net_fixed)
        ctx.fail(lineno, "'" + cmd +
                             "' not allowed here: the network is fixed, "
                             "only app blocks may be submitted");
      if (app) ctx.fail(lineno, "'" + cmd + "' inside an app block");
      if (network_frozen)
        ctx.fail(lineno, "'" + cmd + "' after the first app block");
    }

    if (cmd == "resources") {
      if (schema_set) ctx.fail(lineno, "duplicate 'resources' directive");
      if (out.net.ncp_count() > 0)
        ctx.fail(lineno, "'resources' must precede all NCPs");
      if (t.size() < 2 || t.size() > 3)
        ctx.fail(lineno, "'resources' expects 1 or 2 type names");
      schema = ResourceSchema(std::vector<std::string>(t.begin() + 1,
                                                       t.end()));
      schema_set = true;
      out.net = Network(schema);
      continue;
    }

    if (cmd == "ncp") {
      std::string region = ctx.take_region(t);
      const double fp = ctx.take_fail_prob(t, lineno);
      if (region.empty()) region = ctx.take_region(t);
      if (t.size() != 2 + schema.size())
        ctx.fail(lineno, "'ncp' expects a name and " +
                             std::to_string(schema.size()) + " capacities");
      if (ncp_by_name.contains(t[1]))
        ctx.fail(lineno, "duplicate NCP name '" + t[1] + "'");
      ResourceVector cap(schema.size());
      for (std::size_t r = 0; r < schema.size(); ++r)
        cap[r] = ctx.parse_number(t[2 + r], lineno, "capacity");
      try {
        ncp_by_name[t[1]] = out.net.add_ncp(t[1], cap, fp, std::move(region));
      } catch (const std::invalid_argument& e) {
        ctx.fail(lineno, e.what());
      }
      continue;
    }

    if (cmd == "link" || cmd == "dlink") {
      const double fp = ctx.take_fail_prob(t, lineno);
      if (t.size() != 5)
        ctx.fail(lineno, "'" + cmd + "' expects: name ncpA ncpB bandwidth");
      if (link_by_name.contains(t[1]))
        ctx.fail(lineno, "duplicate link name '" + t[1] + "'");
      const auto a = ncp_by_name.find(t[2]);
      const auto b = ncp_by_name.find(t[3]);
      if (a == ncp_by_name.end())
        ctx.fail(lineno, "unknown NCP '" + t[2] + "'");
      if (b == ncp_by_name.end())
        ctx.fail(lineno, "unknown NCP '" + t[3] + "'");
      try {
        const double bw = ctx.parse_number(t[4], lineno, "bandwidth");
        link_by_name[t[1]] =
            cmd == "dlink"
                ? out.net.add_directed_link(t[1], a->second, b->second, bw,
                                            fp)
                : out.net.add_link(t[1], a->second, b->second, bw, fp);
      } catch (const std::invalid_argument& e) {
        ctx.fail(lineno, e.what());
      }
      continue;
    }

    if (cmd == "app") {
      if (app) ctx.fail(lineno, "nested 'app' block (missing 'end'?)");
      if (t.size() < 4)
        ctx.fail(lineno, "'app' expects: name be|gr params...");
      network_frozen = true;
      app = std::make_unique<AppBlock>();
      app->name = t[1];
      app->graph = std::make_shared<TaskGraph>(schema);
      app->start_line = lineno;
      if (t[2] == "be") {
        if (t.size() > 5)
          ctx.fail(lineno, "'app ... be' takes at most 2 params");
        app->qoe = QoeSpec::best_effort(
            ctx.parse_number(t[3], lineno, "priority"),
            t.size() > 4 ? ctx.parse_number(t[4], lineno, "availability")
                         : 0.0);
      } else if (t[2] == "gr") {
        if (t.size() != 5)
          ctx.fail(lineno, "'app ... gr' expects min_rate and availability");
        app->qoe = QoeSpec::guaranteed_rate(
            ctx.parse_number(t[3], lineno, "min rate"),
            ctx.parse_number(t[4], lineno, "min-rate availability"));
      } else {
        ctx.fail(lineno, "app class must be 'be' or 'gr', got '" + t[2] +
                             "'");
      }
      continue;
    }

    if (cmd == "ct") {
      if (!app) ctx.fail(lineno, "'ct' outside an app block");
      if (t.size() != 2 + schema.size())
        ctx.fail(lineno, "'ct' expects a name and " +
                             std::to_string(schema.size()) +
                             " requirements");
      if (app->ct_by_name.contains(t[1]))
        ctx.fail(lineno, "duplicate CT name '" + t[1] + "'");
      ResourceVector req(schema.size());
      for (std::size_t r = 0; r < schema.size(); ++r)
        req[r] = ctx.parse_number(t[2 + r], lineno, "requirement");
      try {
        app->ct_by_name[t[1]] = app->graph->add_ct(t[1], req);
      } catch (const std::invalid_argument& e) {
        ctx.fail(lineno, e.what());
      }
      continue;
    }

    if (cmd == "tt") {
      if (!app) ctx.fail(lineno, "'tt' outside an app block");
      if (t.size() != 5) ctx.fail(lineno, "'tt' expects: name bits src dst");
      const auto s = app->ct_by_name.find(t[3]);
      const auto d = app->ct_by_name.find(t[4]);
      if (s == app->ct_by_name.end())
        ctx.fail(lineno, "unknown CT '" + t[3] + "'");
      if (d == app->ct_by_name.end())
        ctx.fail(lineno, "unknown CT '" + t[4] + "'");
      try {
        app->graph->add_tt(t[1], ctx.parse_number(t[2], lineno, "bits"),
                           s->second, d->second);
      } catch (const std::invalid_argument& e) {
        ctx.fail(lineno, e.what());
      }
      continue;
    }

    if (cmd == "pin") {
      if (!app) ctx.fail(lineno, "'pin' outside an app block");
      if (t.size() != 3) ctx.fail(lineno, "'pin' expects: ct_name ncp_name");
      app->pins.emplace_back(t[1], t[2]);
      continue;
    }

    if (cmd == "end") {
      if (!app) ctx.fail(lineno, "'end' without an open app block");
      Application result;
      result.name = app->name;
      result.qoe = app->qoe;
      try {
        app->graph->finalize();
      } catch (const std::invalid_argument& e) {
        ctx.fail(lineno, std::string("app '") + app->name + "': " + e.what());
      }
      for (const auto& [ct_name, ncp_name] : app->pins) {
        const auto ct = app->ct_by_name.find(ct_name);
        if (ct == app->ct_by_name.end())
          ctx.fail(lineno, "pin references unknown CT '" + ct_name + "'");
        const auto ncp = ncp_by_name.find(ncp_name);
        if (ncp == ncp_by_name.end())
          ctx.fail(lineno, "pin references unknown NCP '" + ncp_name + "'");
        result.pinned[ct->second] = ncp->second;
      }
      result.graph = std::move(app->graph);
      try {
        result.validate();
      } catch (const std::invalid_argument& e) {
        ctx.fail(lineno, e.what());
      }
      out.apps.push_back(std::move(result));
      app.reset();
      continue;
    }

    ctx.fail(lineno, "unknown directive '" + cmd + "'");
  }
  if (app) ctx.fail(lineno, "unterminated app block '" + app->name + "'");
  if (out.net.ncp_count() == 0)
    ctx.fail(lineno, "scenario defines no NCPs");
  return out;
}

}  // namespace

ScenarioFile parse_scenario(std::istream& in, const std::string& source) {
  return parse_scenario_impl(in, ParseContext{source}, nullptr);
}

ScenarioFile parse_scenario_text(const std::string& text,
                                 const std::string& source) {
  std::istringstream is(text);
  return parse_scenario(is, source);
}

ScenarioFile load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open scenario file: " + path);
  return parse_scenario(in, path);
}

std::vector<Application> parse_apps_text(const std::string& text,
                                         const Network& net,
                                         const std::string& source) {
  std::istringstream is(text);
  ScenarioFile parsed = parse_scenario_impl(is, ParseContext{source}, &net);
  if (parsed.apps.empty())
    throw std::runtime_error(source + ": no app block found");
  return std::move(parsed.apps);
}

namespace {

/// Shortest decimal string that std::stod parses back to exactly the same
/// double, so write_scenario -> parse_scenario is lossless (default
/// ostream printing truncates to 6 significant digits).
std::string fmt(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// Writes one `app ... end` block (shared by write_scenario and
/// write_app_text).
void write_app(std::ostream& os, const Application& app, const Network& net) {
  os << "app " << app.name << " ";
  if (app.qoe.cls == QoeClass::kBestEffort) {
    os << "be " << fmt(app.qoe.priority);
    if (app.qoe.availability > 0) os << " " << fmt(app.qoe.availability);
  } else {
    os << "gr " << fmt(app.qoe.min_rate) << " "
       << fmt(app.qoe.min_rate_availability);
  }
  os << "\n";
  const TaskGraph& g = *app.graph;
  for (CtId i = 0; i < static_cast<CtId>(g.ct_count()); ++i) {
    os << "  ct " << g.ct(i).name;
    for (std::size_t r = 0; r < g.ct(i).requirement.size(); ++r)
      os << " " << fmt(g.ct(i).requirement[r]);
    os << "\n";
  }
  for (TtId k = 0; k < static_cast<TtId>(g.tt_count()); ++k)
    os << "  tt " << g.tt(k).name << " " << fmt(g.tt(k).bits_per_unit)
       << " " << g.ct(g.tt(k).src).name << " " << g.ct(g.tt(k).dst).name
       << "\n";
  for (const auto& [ct, ncp] : app.pinned)
    os << "  pin " << g.ct(ct).name << " " << net.ncp(ncp).name << "\n";
  os << "end\n";
}

}  // namespace

std::string write_scenario(const ScenarioFile& scenario) {
  std::ostringstream os;
  const Network& net = scenario.net;
  os << "resources";
  for (const std::string& r : net.schema().names()) os << " " << r;
  os << "\n\n";
  for (NcpId j = 0; j < static_cast<NcpId>(net.ncp_count()); ++j) {
    const Ncp& n = net.ncp(j);
    os << "ncp " << n.name;
    for (std::size_t r = 0; r < n.capacity.size(); ++r)
      os << " " << fmt(n.capacity[r]);
    if (n.fail_prob > 0) os << " fail=" << fmt(n.fail_prob);
    if (!n.region.empty()) os << " region=" << n.region;
    os << "\n";
  }
  for (LinkId l = 0; l < static_cast<LinkId>(net.link_count()); ++l) {
    const Link& lk = net.link(l);
    os << (lk.directed ? "dlink " : "link ") << lk.name << " "
       << net.ncp(lk.a).name << " " << net.ncp(lk.b).name << " "
       << fmt(lk.bandwidth);
    if (lk.fail_prob > 0) os << " fail=" << fmt(lk.fail_prob);
    os << "\n";
  }
  for (const Application& app : scenario.apps) {
    os << "\n";
    write_app(os, app, net);
  }
  return os.str();
}

std::string write_app_text(const Application& app, const Network& net) {
  std::ostringstream os;
  write_app(os, app, net);
  return os.str();
}

}  // namespace sparcle::workload
