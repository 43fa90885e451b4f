#include "baselines/heft.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/greedy_engine.hpp"
#include "core/widest_path.hpp"

namespace sparcle {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Execution time of one data unit of CT i on NCP j:
/// max_r a_i^(r) / C_j^(r); +inf when some required resource is absent.
double exec_time(const TaskGraph& g, const CapacitySnapshot& cap, CtId i,
                 NcpId j) {
  const ResourceVector& a = g.ct(i).requirement;
  double t = 0;
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a[r] <= 0) continue;
    if (cap.ncp(j)[r] <= 0) return kInf;
    t = std::max(t, a[r] / cap.ncp(j)[r]);
  }
  return t;
}

}  // namespace

AssignmentResult HeftAssigner::assign(const AssignmentProblem& problem) const {
  const TaskGraph& g = *problem.graph;
  const Network& net = *problem.net;
  const CapacitySnapshot& cap = problem.capacities;

  // Average execution cost per CT and average link bandwidth.
  std::vector<double> w(g.ct_count(), 0.0);
  for (CtId i = 0; i < static_cast<CtId>(g.ct_count()); ++i) {
    double sum = 0;
    std::size_t usable = 0;
    for (NcpId j = 0; j < static_cast<NcpId>(net.ncp_count()); ++j) {
      const double t = exec_time(g, cap, i, j);
      if (t < kInf) {
        sum += t;
        ++usable;
      }
    }
    w[i] = usable > 0 ? sum / static_cast<double>(usable) : kInf;
  }
  double bw_sum = 0;
  for (LinkId l = 0; l < static_cast<LinkId>(net.link_count()); ++l)
    bw_sum += cap.link(l);
  const double avg_bw =
      net.link_count() > 0 ? bw_sum / static_cast<double>(net.link_count())
                           : 0.0;

  // Upward ranks in reverse topological order.
  std::vector<double> rank(g.ct_count(), 0.0);
  const std::vector<CtId>& topo = g.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const CtId i = *it;
    double best_succ = 0;
    for (TtId k : g.out_tts(i)) {
      const double comm =
          avg_bw > 0 ? g.tt(k).bits_per_unit / avg_bw : 0.0;
      best_succ = std::max(best_succ, comm + rank[g.tt(k).dst]);
    }
    rank[i] = w[i] + best_succ;
  }

  std::vector<CtId> order;
  for (CtId i = 0; i < static_cast<CtId>(g.ct_count()); ++i)
    if (!problem.pinned.contains(i)) order.push_back(i);
  std::stable_sort(order.begin(), order.end(),
                   [&](CtId x, CtId y) { return rank[x] > rank[y]; });

  // Schedule one data unit: EFT(i, j) = max over placed predecessors of
  // (AFT(pred) + transfer time between hosts) + exec time, where the
  // transfer time uses the widest-path bandwidth between the hosts.
  GreedyEngine engine(problem, true, GreedyEngine::Routing::kShortestHops);
  engine.commit_pins();
  std::vector<double> aft(g.ct_count(), 0.0);  // actual finish times
  std::vector<double> ncp_ready(net.ncp_count(), 0.0);
  WidestPathWorkspace ws;

  // Pinned CTs are "scheduled" first at their hosts.
  for (const auto& [ct, ncp] : problem.pinned) {
    const double t = exec_time(g, cap, ct, ncp);
    aft[ct] = ncp_ready[ncp] + (t == kInf ? 0.0 : t);
    ncp_ready[ncp] = aft[ct];
  }

  for (CtId i : order) {
    NcpId best = kInvalidId;
    double best_eft = kInf;
    for (NcpId j = 0; j < static_cast<NcpId>(net.ncp_count()); ++j) {
      const double exec = exec_time(g, cap, i, j);
      if (exec == kInf) continue;
      double est = ncp_ready[j];
      bool reachable = true;
      for (TtId k : g.in_tts(i)) {
        const CtId pred = g.tt(k).src;
        if (!engine.placed(pred)) continue;
        const NcpId pj = engine.host(pred);
        double comm = 0;
        if (pj != j) {
          const WidestPathResult p =
              best_tt_path(net, cap, engine.load(), g.tt(k).bits_per_unit,
                           pj, j, ws);
          if (!p.reachable) {
            reachable = false;
            break;
          }
          comm = 1.0 / p.width;  // seconds per data unit at the bottleneck
        }
        est = std::max(est, aft[pred] + comm);
      }
      if (!reachable) continue;
      const double eft = est + exec;
      if (eft < best_eft) {
        best_eft = eft;
        best = j;
      }
    }
    if (best == kInvalidId) {
      AssignmentResult r;
      r.message = "HEFT: no reachable host";
      return r;
    }
    engine.commit(i, best);
    aft[i] = best_eft;
    ncp_ready[best] = best_eft;
  }

  return std::move(engine).finish();
}

}  // namespace sparcle
