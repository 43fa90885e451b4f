#include "core/greedy_engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace sparcle {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

GreedyEngine::GreedyEngine(const AssignmentProblem& problem,
                           bool probe_with_min_bits_tt, Routing routing)
    : problem_(&problem),
      probe_min_bits_(probe_with_min_bits_tt),
      routing_(routing),
      placement_(*problem.graph),
      load_(LoadMap::zeros(*problem.net)),
      placed_(problem.graph->ct_count(), 0) {
  if (problem.net == nullptr || problem.graph == nullptr)
    throw std::invalid_argument("GreedyEngine: problem missing net or graph");
  // Force the network's lazy CSR adjacency build now, while we are single
  // threaded; parallel gamma evaluation reads it concurrently later.
  if (net().ncp_count() > 0) (void)net().incident_links(0);
}

double GreedyEngine::node_term(CtId i, NcpId j) const {
  const TaskGraph& g = graph();
  const CapacitySnapshot& cap = capacities();
  double rate = kInf;
  const ResourceVector& req = g.ct(i).requirement;
  const ResourceVector& existing = load_.ncp_load(j);
  for (std::size_t r = 0; r < req.size(); ++r) {
    const double denom = req[r] + existing[r];
    if (denom <= 0) continue;
    rate = std::min(rate, cap.ncp(j)[r] / denom);
  }
  return rate;
}

double GreedyEngine::compute_probe_bits(CtId i, CtId other) const {
  const TaskGraph& g = graph();
  const std::vector<TtId> between = g.tts_between(i, other);
  TtId k = between.front();
  for (TtId cand : between) {
    const bool better = probe_min_bits_
                            ? g.tt(cand).bits_per_unit < g.tt(k).bits_per_unit
                            : g.tt(cand).bits_per_unit > g.tt(k).bits_per_unit;
    if (better) k = cand;
  }
  return g.tt(k).bits_per_unit;
}

void GreedyEngine::warm_probe_cache() {
  if (probe_warm_) return;
  const std::size_t n = graph().ct_count();
  probe_bits_.assign(n * n, 0.0);
  for (CtId i = 0; i < static_cast<CtId>(n); ++i)
    for (CtId other = static_cast<CtId>(i + 1); other < static_cast<CtId>(n);
         ++other) {
      if (!graph().related(i, other)) continue;
      const double bits = compute_probe_bits(i, other);
      probe_bits_[static_cast<std::size_t>(i) * n + other] = bits;
      probe_bits_[static_cast<std::size_t>(other) * n + i] = bits;
    }
  probe_warm_ = true;
}

double GreedyEngine::probe_bits(CtId i, CtId other) const {
  if (probe_warm_)
    return probe_bits_[static_cast<std::size_t>(i) * graph().ct_count() +
                       other];
  return compute_probe_bits(i, other);
}

double GreedyEngine::gamma(CtId i, NcpId j) const {
  return gamma(i, j, scratch_, -kInf);
}

double GreedyEngine::gamma(CtId i, NcpId j, WidestPathWorkspace& ws,
                           double floor) const {
  const TaskGraph& g = graph();
  const CapacitySnapshot& cap = capacities();
  gamma_evals_.fetch_add(1, std::memory_order_relaxed);

  // Node term: min_r C_j^(r) / (a_i^(r) + existing load on j).
  double rate = node_term(i, j);
  if (rate <= floor) return rate;

  // Link terms: widest path towards each placed reachable CT, probed with
  // the minimum-bit TT of G(i, i') (Alg. 2 line 12).
  for (CtId other = 0; other < static_cast<CtId>(g.ct_count()); ++other) {
    if (!placed_[other] || other == i) continue;
    if (!g.related(i, other)) continue;
    const NcpId jo = placement_.ct_host(other);
    if (jo == j) continue;
    const TtPathWeight weight{&cap, &load_, probe_bits(i, other)};
    widest_path_calls_.fetch_add(1, std::memory_order_relaxed);
    const WidestWidthResult probe =
        widest_path_width(net(), j, jo, weight, ws, floor);
    if (probe.pruned) {
      bnb_prunes_.fetch_add(1, std::memory_order_relaxed);
      return std::min(rate, probe.width);  // <= floor
    }
    if (!probe.reachable) return 0.0;
    rate = std::min(rate, probe.width);
    if (rate <= floor) return rate;
  }
  return rate;
}

NcpId GreedyEngine::best_host(CtId i, double* gamma_out) const {
  return best_host(i, scratch_, gamma_out);
}

NcpId GreedyEngine::best_host(CtId i, WidestPathWorkspace& ws,
                              double* gamma_out) const {
  NcpId best = kInvalidId;
  double best_gamma = -kInf;
  for (NcpId j = 0; j < static_cast<NcpId>(net().ncp_count()); ++j) {
    // Exact branch-and-bound: γ(i,j) <= node_term(i,j), and a tie goes to
    // the lower NCP id (already the incumbent), so a candidate whose bound
    // cannot *strictly* beat the incumbent is skipped outright.
    if (best != kInvalidId && node_term(i, j) <= best_gamma) {
      bnb_prunes_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const double g = gamma(i, j, ws, best_gamma);
    if (g > best_gamma || (g == best_gamma && j < best)) {
      best_gamma = g;
      best = j;
    }
  }
  if (gamma_out != nullptr) *gamma_out = best_gamma;
  return best;
}

void GreedyEngine::commit(CtId i, NcpId j) {
  if (placed_[i]) throw std::logic_error("GreedyEngine: CT placed twice");
  if (j < 0 || j >= static_cast<NcpId>(net().ncp_count()))
    throw std::invalid_argument("GreedyEngine: commit to unknown NCP");
  const TaskGraph& g = graph();
  placement_.place_ct(i, j);
  placed_[i] = 1;
  ++placed_count_;
  load_.add_ct(g, i, j);

  auto route = [&](TtId k, NcpId from, NcpId to) {
    if (from == to) {
      placement_.place_tt(k, {});
      return;
    }
    widest_path_calls_.fetch_add(1, std::memory_order_relaxed);
    const WidestPathResult path =
        routing_ == Routing::kWidestPath
            ? best_tt_path(net(), capacities(), load_, g.tt(k).bits_per_unit,
                           from, to, scratch_)
            : shortest_hop_path(net(), from, to);
    if (!path.reachable) return;  // leaves the placement incomplete
    for (LinkId l : path.links) load_.add_tt(g, k, l);
    placement_.place_tt(k, path.links);
  };

  for (TtId k : g.in_tts(i)) {
    const CtId src = g.tt(k).src;
    if (placed_[src]) route(k, placement_.ct_host(src), j);
  }
  for (TtId k : g.out_tts(i)) {
    const CtId dst = g.tt(k).dst;
    if (placed_[dst]) route(k, j, placement_.ct_host(dst));
  }
}

void GreedyEngine::commit_pins() {
  for (const auto& [ct, ncp] : problem_->pinned) commit(ct, ncp);
}

AssignmentResult GreedyEngine::finish() && {
  return finish_assignment(*problem_, std::move(placement_));
}

}  // namespace sparcle
