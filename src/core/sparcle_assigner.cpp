#include "core/sparcle_assigner.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/greedy_engine.hpp"
#include "core/local_search.hpp"
#include "obs/obs.hpp"

namespace sparcle {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Flushes the run's counters into the installed registry on every exit
/// path (including the infeasible early return).  No-op when no registry
/// is installed.
class MetricsFlush {
 public:
  MetricsFlush(const GreedyEngine& engine, const std::uint64_t& rounds)
      : engine_(engine), rounds_(rounds) {}
  ~MetricsFlush() {
    obs::MetricsRegistry* reg = obs::metrics();
    if (reg == nullptr) return;
    const EngineStats es = engine_.stats();
    reg->counter("assigner.assigns").add(1);
    reg->counter("assigner.ranking_rounds").add(rounds_);
    reg->counter("assigner.gamma_evals").add(es.gamma_evals);
    reg->counter("assigner.widest_path_calls").add(es.widest_path_calls);
  }

 private:
  const GreedyEngine& engine_;
  const std::uint64_t& rounds_;
};

}  // namespace

AssignmentResult SparcleAssigner::assign(
    const AssignmentProblem& problem) const {
  using Ranking = SparcleAssignerOptions::Ranking;
  // Phase span: in kBestOfBoth mode the two sub-assigns nest their own
  // spans inside this one, so the Chrome trace shows the recursion.
  obs::ScopedTimer span("assigner.assign");
  if (options_.ranking == Ranking::kBestOfBoth) {
    SparcleAssignerOptions a = options_, b = options_;
    a.ranking = Ranking::kMostConstrainedFirst;
    b.ranking = Ranking::kLeastConstrainedFirst;
    a.local_search_rounds = b.local_search_rounds = 0;  // refine once below
    AssignmentResult ra = SparcleAssigner(a).assign(problem);
    AssignmentResult rb = SparcleAssigner(b).assign(problem);
    AssignmentResult best;
    if (!ra.feasible)
      best = std::move(rb);
    else if (!rb.feasible)
      best = std::move(ra);
    else
      best = ra.rate >= rb.rate ? std::move(ra) : std::move(rb);
    if (best.feasible && options_.local_search_rounds > 0)
      best = refine_placement(problem, best,
                              {options_.local_search_rounds});
    return best;
  }
  GreedyEngine engine(problem, options_.probe_with_min_bits_tt);
  engine.commit_pins();  // Alg. 2 lines 3-5
  engine.warm_probe_cache();

  const std::size_t total = engine.graph().ct_count();

  std::uint64_t rounds = 0;
  const MetricsFlush flush(engine, rounds);

  // One round's best-host evaluations (lines 7-14): every unplaced CT
  // with its best host and γ, in CT order, plus the committed host of
  // every placed CT.  Between commits the engine's widest-width trees
  // are shared by every CT probing the same host.
  std::vector<policy::CtCandidate> candidates;
  std::vector<NcpId> hosts;
  const auto evaluate_round = [&] {
    candidates.clear();
    hosts.assign(total, kInvalidId);
    for (CtId i = 0; i < static_cast<CtId>(total); ++i) {
      if (engine.placed(i)) {
        hosts[i] = engine.host(i);
        continue;
      }
      double gi = -kInf;
      const NcpId ji = engine.best_host(i, &gi);
      candidates.push_back({i, ji, gi});
    }
  };

  const bool most_constrained =
      options_.ranking == Ranking::kMostConstrainedFirst;
  const policy::SchedulingPolicy& pol = policy::or_default(options_.policy);

  // Static-ranking ablation: the CT order is frozen after the first
  // evaluation round (ascending γ in a most-constrained pass, descending
  // otherwise); hosts are still chosen against current loads.
  std::vector<CtId> static_order;

  while (engine.placed_count() < total) {
    ++rounds;
    CtId chosen = kInvalidId;
    NcpId chosen_host = kInvalidId;

    if (options_.dynamic_ranking) {
      // Lines 7-16: evaluate every unplaced CT's best host, then let the
      // policy pick a CT by its best-host γ (decision point 2; see
      // SparcleAssignerOptions on the direction).
      evaluate_round();
      policy::SelectContext ctx;
      ctx.net = problem.net;
      ctx.graph = problem.graph;
      ctx.most_constrained_pass = most_constrained;
      ctx.ct_host = &hosts;
      const std::size_t pick = pol.select_ct(ctx, candidates);
      if (pick < candidates.size()) {
        chosen = candidates[pick].ct;
        chosen_host = candidates[pick].host;
      }
    } else {
      if (static_order.empty()) {
        evaluate_round();
        std::vector<std::pair<double, CtId>> ranked;
        for (const policy::CtCandidate& c : candidates)
          ranked.emplace_back(c.gamma, c.ct);
        std::sort(ranked.begin(), ranked.end());
        if (!most_constrained) std::reverse(ranked.begin(), ranked.end());
        for (const auto& [g, i] : ranked) static_order.push_back(i);
      }
      for (CtId i : static_order) {
        if (!engine.placed(i)) {
          chosen = i;
          break;
        }
      }
      if (chosen != kInvalidId) chosen_host = engine.best_host(chosen);
    }

    if (chosen == kInvalidId || chosen_host == kInvalidId) {
      AssignmentResult r;
      r.message = "no placeable CT (disconnected network?)";
      return r;
    }
    engine.commit(chosen, chosen_host);
  }

  AssignmentResult result = std::move(engine).finish();
  if (result.feasible && options_.local_search_rounds > 0)
    result =
        refine_placement(problem, result, {options_.local_search_rounds});
  return result;
}

}  // namespace sparcle
