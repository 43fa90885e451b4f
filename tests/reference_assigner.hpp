#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/greedy_engine.hpp"
#include "core/sparcle_assigner.hpp"
#include "core/widest_path.hpp"

/// \file reference_assigner.hpp
/// The point-to-point γ that GreedyEngine used before its link terms were
/// read off widest-width trees, kept as the oracle for the tree version:
/// one Algorithm 1 Dijkstra from each candidate host j to each placed
/// relative's host, aborted by a branch-and-bound floor, and a best-host
/// scan that skips a candidate whose node term cannot beat the incumbent.
/// The γ, best-host and ranking-round code is the old library code,
/// rewritten only to read the engine through its public state; commits
/// still go through GreedyEngine::commit, so the oracle checks the
/// decisions and leaves the routing to the engine.  Policy plugins and
/// local search are not modelled.

namespace sparcle::testutil {

/// The old floor-pruned widest-path probe.
struct ReferenceWidth {
  bool reachable{false};
  bool pruned{false};
  double width{0.0};  ///< exact width, or an upper bound <= floor when pruned
};

/// The old Dijkstra core with its floor abort: forward arrows from `from`,
/// settling until `to` (returns 1), exhaustion (0) or a frontier no wider
/// than `floor` (-1, with that width in *bound).
template <typename WeightFn>
int reference_widest_dijkstra(const Network& net, NcpId from, NcpId to,
                              const WeightFn& weight, WidestPathWorkspace& ws,
                              double floor, double* bound) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ws.prepare(net.ncp_count());
  ws.relax(from, kInf, kInvalidId);
  ws.push(kInf, from);
  while (!ws.heap_empty()) {
    const auto [w, v] = ws.pop();
    if (ws.done(v)) continue;
    if (w <= floor) {
      *bound = w;
      return -1;
    }
    ws.mark_done(v);
    if (v == to) return 1;
    for (LinkId l : net.incident_links(v)) {
      const Link& lk = net.link(l);
      if (lk.directed && lk.a != v) continue;
      const double lw = weight(l);
      const NcpId u = lk.a ^ lk.b ^ v;
      const double cand = lw < w ? lw : w;
      const bool improves = (lw > 0) & !ws.done(u) & (cand > ws.phi(u));
      if (improves) {
        ws.relax(u, cand, l);
        ws.push(cand, u);
      }
    }
  }
  return 0;
}

/// The old widest_path_width.
template <typename WeightFn>
ReferenceWidth reference_widest_width(const Network& net, NcpId from,
                                      NcpId to, const WeightFn& weight,
                                      WidestPathWorkspace& ws, double floor) {
  ReferenceWidth r;
  if (from == to) {
    r.reachable = true;
    r.width = std::numeric_limits<double>::infinity();
    return r;
  }
  double bound = 0.0;
  switch (reference_widest_dijkstra(net, from, to, weight, ws, floor,
                                    &bound)) {
    case 1:
      r.reachable = true;
      r.width = ws.phi(to);
      break;
    case -1:
      r.pruned = true;
      r.width = bound;
      break;
    default:
      break;
  }
  return r;
}

/// The old GreedyEngine γ / best_host, reading a live engine.
class ReferenceGamma {
 public:
  ReferenceGamma(const GreedyEngine& engine, bool probe_min_bits)
      : e_(engine), probe_min_bits_(probe_min_bits) {}

  double node_term(CtId i, NcpId j) const {
    const TaskGraph& g = e_.graph();
    const CapacitySnapshot& cap = e_.capacities();
    double rate = kInf;
    const ResourceVector& req = g.ct(i).requirement;
    const ResourceVector& existing = e_.load().ncp_load(j);
    for (std::size_t r = 0; r < req.size(); ++r) {
      const double denom = req[r] + existing[r];
      if (denom <= 0) continue;
      rate = std::min(rate, cap.ncp(j)[r] / denom);
    }
    return rate;
  }

  double probe_bits(CtId i, CtId other) const {
    const TaskGraph& g = e_.graph();
    const std::vector<TtId> between = g.tts_between(i, other);
    TtId k = between.front();
    for (TtId cand : between) {
      const bool better =
          probe_min_bits_ ? g.tt(cand).bits_per_unit < g.tt(k).bits_per_unit
                          : g.tt(cand).bits_per_unit > g.tt(k).bits_per_unit;
      if (better) k = cand;
    }
    return g.tt(k).bits_per_unit;
  }

  /// γ with the branch-and-bound floor (-infinity for the exact value).
  double gamma(CtId i, NcpId j, double floor) const {
    const TaskGraph& g = e_.graph();
    double rate = node_term(i, j);
    if (rate <= floor) return rate;
    for (CtId other = 0; other < static_cast<CtId>(g.ct_count()); ++other) {
      if (!e_.placed(other) || other == i) continue;
      if (!g.related(i, other)) continue;
      const NcpId jo = e_.host(other);
      if (jo == j) continue;
      const TtPathWeight weight{&e_.capacities(), &e_.load(),
                                probe_bits(i, other)};
      const ReferenceWidth probe =
          reference_widest_width(e_.net(), j, jo, weight, ws_, floor);
      if (probe.pruned) return std::min(rate, probe.width);
      if (!probe.reachable) return 0.0;
      rate = std::min(rate, probe.width);
      if (rate <= floor) return rate;
    }
    return rate;
  }

  NcpId best_host(CtId i, double* gamma_out) const {
    NcpId best = kInvalidId;
    double best_gamma = -kInf;
    for (NcpId j = 0; j < static_cast<NcpId>(e_.net().ncp_count()); ++j) {
      if (best != kInvalidId && node_term(i, j) <= best_gamma) continue;
      const double g = gamma(i, j, best_gamma);
      if (g > best_gamma || (g == best_gamma && j < best)) {
        best_gamma = g;
        best = j;
      }
    }
    if (gamma_out != nullptr) *gamma_out = best_gamma;
    return best;
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  const GreedyEngine& e_;
  bool probe_min_bits_;
  mutable WidestPathWorkspace ws_;
};

inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The old SparcleAssigner::assign ranking loop (serial, no policy, no
/// local search) over ReferenceGamma.  Every best-host evaluation is also
/// run through the live engine under test and must agree on host and γ
/// bit for bit.
inline AssignmentResult reference_assign(const AssignmentProblem& problem,
                                         const SparcleAssignerOptions& options,
                                         const std::string& label) {
  using Ranking = SparcleAssignerOptions::Ranking;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (options.ranking == Ranking::kBestOfBoth) {
    SparcleAssignerOptions a = options, b = options;
    a.ranking = Ranking::kMostConstrainedFirst;
    b.ranking = Ranking::kLeastConstrainedFirst;
    AssignmentResult ra = reference_assign(problem, a, label);
    AssignmentResult rb = reference_assign(problem, b, label);
    if (!ra.feasible) return rb;
    if (!rb.feasible) return ra;
    return ra.rate >= rb.rate ? std::move(ra) : std::move(rb);
  }
  GreedyEngine engine(problem, options.probe_with_min_bits_tt);
  engine.commit_pins();
  engine.warm_probe_cache();
  const ReferenceGamma ref(engine, options.probe_with_min_bits_tt);

  const auto best_host = [&](CtId i, double* gamma_out) {
    const NcpId j = ref.best_host(i, gamma_out);
    double g = 0.0;
    const NcpId ej = engine.best_host(i, &g);
    EXPECT_EQ(ej, j) << label << " ct " << i;
    EXPECT_TRUE(same_bits(g, *gamma_out))
        << label << " ct " << i << ": engine γ " << g << " vs " << *gamma_out;
    return j;
  };

  const std::size_t total = engine.graph().ct_count();
  struct Candidate {
    NcpId host{kInvalidId};
    double gamma{-kInf};
  };
  std::vector<Candidate> slots(total);
  std::vector<CtId> static_order;
  bool order_frozen = false;
  const bool most_constrained =
      options.ranking == Ranking::kMostConstrainedFirst;

  while (engine.placed_count() < total) {
    CtId chosen = kInvalidId;
    NcpId chosen_host = kInvalidId;
    if (options.dynamic_ranking || !order_frozen) {
      for (CtId i = 0; i < static_cast<CtId>(total); ++i) {
        if (engine.placed(i)) continue;
        double gi = -kInf;
        const NcpId ji = best_host(i, &gi);
        slots[i] = {ji, gi};
      }
      double chosen_gamma = most_constrained ? kInf : -kInf;
      std::vector<std::pair<double, CtId>> ranked;
      for (CtId i = 0; i < static_cast<CtId>(total); ++i) {
        if (engine.placed(i)) continue;
        const double gi = slots[i].gamma;
        ranked.emplace_back(gi, i);
        const bool better =
            most_constrained ? gi < chosen_gamma : gi > chosen_gamma;
        if (better) {
          chosen_gamma = gi;
          chosen = i;
          chosen_host = slots[i].host;
        }
      }
      if (!options.dynamic_ranking) {
        std::sort(ranked.begin(), ranked.end());
        if (!most_constrained) std::reverse(ranked.begin(), ranked.end());
        for (const auto& [g, i] : ranked) static_order.push_back(i);
        order_frozen = true;
      }
    }
    if (!options.dynamic_ranking) {
      chosen = kInvalidId;
      for (CtId i : static_order) {
        if (!engine.placed(i)) {
          chosen = i;
          break;
        }
      }
      double unused = 0.0;
      if (chosen != kInvalidId) chosen_host = best_host(chosen, &unused);
    }
    if (chosen == kInvalidId || chosen_host == kInvalidId) {
      AssignmentResult r;
      r.message = "no placeable CT (disconnected network?)";
      return r;
    }
    engine.commit(chosen, chosen_host);
  }
  return std::move(engine).finish();
}

/// Full-result equality: feasibility, message, rate (bit for bit), every
/// CT host and every TT route.
inline void expect_same_assignment(const AssignmentResult& got,
                                   const AssignmentResult& ref,
                                   const TaskGraph& graph,
                                   const std::string& label) {
  ASSERT_EQ(got.feasible, ref.feasible) << label;
  EXPECT_EQ(got.message, ref.message) << label;
  EXPECT_TRUE(same_bits(got.rate, ref.rate))
      << label << ": rate " << got.rate << " vs " << ref.rate;
  for (CtId i = 0; i < static_cast<CtId>(graph.ct_count()); ++i)
    EXPECT_EQ(got.placement.ct_host(i), ref.placement.ct_host(i))
        << label << " ct " << i;
  for (TtId k = 0; k < static_cast<TtId>(graph.tt_count()); ++k) {
    ASSERT_EQ(got.placement.tt_placed(k), ref.placement.tt_placed(k))
        << label << " tt " << k;
    if (got.placement.tt_placed(k)) {
      EXPECT_EQ(got.placement.tt_route(k), ref.placement.tt_route(k))
          << label << " tt " << k;
    }
  }
}

}  // namespace sparcle::testutil
