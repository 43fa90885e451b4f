#include "federation/check.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>

namespace sparcle::federation {

namespace {

bool close(double a, double b, double tol) {
  return std::abs(a - b) <= tol * (1.0 + std::max(std::abs(a), std::abs(b)));
}

}  // namespace

std::string ConservationReport::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) os << "\n";
    os << violations[i];
  }
  return os.str();
}

ConservationReport check_federation(FederatedService& fed,
                                    const check::CheckOptions& options) {
  ConservationReport report;
  const auto add = [&report](std::string v) {
    report.violations.push_back(std::move(v));
  };
  const ShardPlan& plan = fed.plan();
  const Network& net = fed.network();
  const double tol = options.tolerance;

  // Layer 1: every shard passes the single-scheduler invariant checker;
  // grab each shard's reservation table and failed set while we hold the
  // scheduling thread.
  std::vector<std::map<std::string, Scheduler::ExternalReservation>> ext(
      fed.shard_count());
  std::vector<std::set<ElementKey>> shard_failed(fed.shard_count());
  for (std::size_t s = 0; s < fed.shard_count(); ++s) {
    check::CheckReport shard_report;
    const bool ran = fed.shard(s).inspect([&](const Scheduler& sc) {
      shard_report = check::check_scheduler_state(sc, options);
      ext[s] = sc.external_reservations();
      shard_failed[s] = sc.failed_elements();
    });
    if (!ran) {
      add("shard " + std::to_string(s) + ": not inspectable (stopping)");
      continue;
    }
    for (const check::Violation& v : shard_report.violations)
      add("shard " + std::to_string(s) + ": " +
          std::string(check::to_string(v.code)) + ": " + v.detail);
  }

  const std::map<std::string, CrossApp> cross = fed.cross_apps();

  // Layer 2a: every shard hold belongs to a committed cross app that
  // lists this shard, and the held load matches the app's committed load
  // restricted to the shard, element by element.
  const std::size_t resources = net.schema().size();
  for (std::size_t s = 0; s < fed.shard_count(); ++s) {
    const Shard& shard = plan.shards[s];
    for (const auto& [name, res] : ext[s]) {
      const auto it = cross.find(name);
      if (it == cross.end()) {
        add("shard " + std::to_string(s) + ": orphan external reservation '" +
            name + "' (leaked reserve: no such cross-shard app)");
        continue;
      }
      const CrossApp& ca = it->second;
      if (std::find(ca.shards.begin(), ca.shards.end(), s) ==
          ca.shards.end())
        add("shard " + std::to_string(s) + ": reservation '" + name +
            "' but the cross app does not list this shard");
      for (const ElementKey& local : res.elements) {
        if (local.kind == ElementKey::Kind::kNcp) {
          const NcpId global =
              shard.global_ncps.at(static_cast<std::size_t>(local.index));
          for (std::size_t r = 0; r < resources; ++r) {
            const double held = res.load.ncp_load(local.index)[r];
            const double committed = ca.load.ncp_load(global)[r];
            if (!close(held, committed, tol))
              add("shard " + std::to_string(s) + ": reservation '" + name +
                  "' holds " + std::to_string(held) + " of " +
                  net.schema().name(r) + " on ncp " + net.ncp(global).name +
                  " but the cross app committed " + std::to_string(committed));
          }
        } else {
          const LinkId global =
              shard.global_links.at(static_cast<std::size_t>(local.index));
          const double held = res.load.link_load(local.index);
          const double committed = ca.load.link_load(global);
          if (!close(held, committed, tol))
            add("shard " + std::to_string(s) + ": reservation '" + name +
                "' holds " + std::to_string(held) + " bandwidth on link " +
                net.link(global).name + " but the cross app committed " +
                std::to_string(committed));
        }
      }
    }
  }

  // Layer 2b: every cross app holds a reservation on every shard it
  // lists (a missing hold means an admission was recorded without its
  // reserve, or a release ran on only part of the shard set).
  for (const auto& [name, ca] : cross)
    for (const std::size_t s : ca.shards)
      if (s >= ext.size() || !ext[s].contains(name))
        add("cross app '" + name + "' lists shard " + std::to_string(s) +
            " but that shard holds no reservation for it");

  // Layer 3: the planning residual equals full capacity minus the
  // recomputed sum of committed cross loads, failed elements zeroed.
  LoadMap cross_total = LoadMap::zeros(net);
  for (const auto& [name, ca] : cross)
    cross_total.add_scaled_at(ca.elements, ca.load, 1.0);
  const std::set<ElementKey> failed = fed.failed_elements();
  const CapacitySnapshot residual = fed.plan_residual();
  for (NcpId j = 0; j < static_cast<NcpId>(net.ncp_count()); ++j) {
    const bool dead = failed.contains(ElementKey::ncp(j));
    for (std::size_t r = 0; r < resources; ++r) {
      const double expected =
          dead ? 0.0
               : std::max(0.0, net.ncp(j).capacity[r] -
                                   cross_total.ncp_load(j)[r]);
      if (!close(residual.ncp(j)[r], expected, tol))
        add("plan residual drift on ncp " + net.ncp(j).name + " " +
            net.schema().name(r) + ": have " +
            std::to_string(residual.ncp(j)[r]) + ", expected " +
            std::to_string(expected));
    }
  }
  for (LinkId l = 0; l < static_cast<LinkId>(net.link_count()); ++l) {
    const bool dead = failed.contains(ElementKey::link(l));
    const double expected =
        dead ? 0.0
             : std::max(0.0, net.link(l).bandwidth - cross_total.link_load(l));
    if (!close(residual.link(l), expected, tol))
      add("plan residual drift on link " + net.link(l).name + ": have " +
          std::to_string(residual.link(l)) + ", expected " +
          std::to_string(expected));
  }

  // Layer 4: boundary links (owned by no shard) stay within capacity.
  for (const LinkId l : plan.boundary_links) {
    const double cap = net.link(l).bandwidth;
    const double used = cross_total.link_load(l);
    if (used > cap + tol * (1.0 + cap))
      add("boundary link " + net.link(l).name + " overcommitted: " +
          std::to_string(used) + " > capacity " + std::to_string(cap));
  }

  return report;
}

}  // namespace sparcle::federation
