#include "core/greedy_engine.hpp"

#include <algorithm>
#include <bit>
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
}

GreedyEngine::GreedyEngine(const GreedyEngine& other)
    : problem_(other.problem_),
      probe_min_bits_(other.probe_min_bits_),
      routing_(other.routing_),
      placement_(other.placement_),
      load_(other.load_),
      placed_(other.placed_),
      placed_count_(other.placed_count_),
      probe_bits_(other.probe_bits_),
      probe_warm_(other.probe_warm_),
      trees_(other.trees_),
      generation_(other.generation_) {}

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

const GreedyEngine::WidthTree& GreedyEngine::width_tree(NcpId root,
                                                        double bits) const {
  // Keys compare by bit pattern so a NaN probe size still hits its tree.
  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  WidthTree* slot = nullptr;
  for (WidthTree& t : trees_) {
    if (t.root == root && same_bits(t.bits, bits)) {
      if (t.generation == generation_) return t;
      slot = &t;
      break;
    }
    if (slot == nullptr && t.generation != generation_) slot = &t;
  }
  if (slot == nullptr) slot = &trees_.emplace_back();
  slot->root = root;
  slot->bits = bits;
  slot->generation = generation_;
  ++widest_path_calls_;
  widest_widths_to(net(), root, TtPathWeight{&capacities(), &load_, bits},
                   scratch_, slot->width);
  return *slot;
}

void GreedyEngine::collect_relative_widths(CtId i) const {
  // Link terms: widest paths towards each placed related CT, probed with
  // the min- (or max-) bit TT of G(i, i') (Alg. 2 line 12).  Pointers into
  // trees_ stay valid while it grows: moving a WidthTree keeps its buffer.
  const TaskGraph& g = graph();
  relative_widths_.clear();
  for (CtId other = 0; other < static_cast<CtId>(g.ct_count()); ++other) {
    if (!placed_[other] || other == i || !g.related(i, other)) continue;
    relative_widths_.push_back(
        width_tree(placement_.ct_host(other), probe_bits(i, other))
            .width.data());
  }
}

double GreedyEngine::gamma_from_trees(CtId i, NcpId j) const {
  ++gamma_evals_;
  double rate = node_term(i, j);
  for (const double* width : relative_widths_) {
    if (!(width[j] > 0)) return 0.0;  // j cannot reach that host
    rate = std::min(rate, width[j]);
  }
  return rate;
}

double GreedyEngine::gamma(CtId i, NcpId j) const {
  collect_relative_widths(i);
  return gamma_from_trees(i, j);
}

NcpId GreedyEngine::best_host(CtId i, double* gamma_out) const {
  collect_relative_widths(i);
  NcpId best = kInvalidId;
  double best_gamma = -kInf;
  for (NcpId j = 0; j < static_cast<NcpId>(net().ncp_count()); ++j) {
    const double g = gamma_from_trees(i, j);
    if (g > best_gamma) {  // strict: the lower id keeps a tie
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

  bool loaded_link = false;
  auto route = [&](TtId k, NcpId from, NcpId to) {
    if (from == to) {
      placement_.place_tt(k, {});
      return;
    }
    ++widest_path_calls_;
    const WidestPathResult path =
        routing_ == Routing::kWidestPath
            ? best_tt_path(net(), capacities(), load_, g.tt(k).bits_per_unit,
                           from, to, scratch_)
            : shortest_hop_path(net(), from, to);
    if (!path.reachable) return;  // leaves the placement incomplete
    for (LinkId l : path.links) load_.add_tt(g, k, l);
    loaded_link = loaded_link || !path.links.empty();
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
  if (loaded_link) ++generation_;  // the link weights of every tree moved
}

void GreedyEngine::commit_pins() {
  for (const auto& [ct, ncp] : problem_->pinned) commit(ct, ncp);
}

AssignmentResult GreedyEngine::finish() && {
  return finish_assignment(*problem_, std::move(placement_));
}

}  // namespace sparcle
