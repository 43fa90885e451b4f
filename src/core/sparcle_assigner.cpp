#include "core/sparcle_assigner.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/greedy_engine.hpp"
#include "core/local_search.hpp"
#include "obs/obs.hpp"

namespace sparcle {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using Ranking = SparcleAssignerOptions::Ranking;

/// One round's commit (Alg. 2 line 16): a CT and its host, kInvalidId
/// where there is none.
struct Pick {
  CtId ct{kInvalidId};
  NcpId host{kInvalidId};
  bool operator==(const Pick&) const = default;
};

/// One ranking direction and what it has committed to.
struct Pass {
  explicit Pass(bool argmin) : most_constrained(argmin) {}
  bool most_constrained;
  /// The static-ranking ablation's CT order, frozen in the first round.
  std::vector<CtId> static_order;
  AssignmentResult result;
};

/// Algorithm 2 for one or two ranking passes.  The passes share one
/// GreedyEngine (its set-up, pin commits, probe cache, trees and every
/// round's best hosts) while they pick the same CT and host; at their
/// first different pick the engine is copied and each pass finishes alone
/// on its own engine.  Either way each pass makes exactly the commits,
/// and reads exactly the γ values, it would make and read alone.
class Ranker {
 public:
  Ranker(const AssignmentProblem& problem,
         const SparcleAssignerOptions& options)
      : problem_(problem),
        options_(options),
        policy_(policy::or_default(options.policy)) {}

  /// Runs `passes` on `engine` until each has its result.
  void run(GreedyEngine& engine, std::span<Pass> passes) {
    const std::size_t total = engine.graph().ct_count();
    while (engine.placed_count() < total) {
      ++rounds_;
      // The static ablation evaluates only its first round, in which
      // every pass freezes its order.
      if (options_.dynamic_ranking || passes.front().static_order.empty())
        evaluate_round(engine);
      const Pick pick = pick_for(engine, passes.front());
      if (passes.size() == 2) {
        const Pick other = pick_for(engine, passes.back());
        if (other != pick) {
          GreedyEngine fork(engine);
          finish_alone(engine, passes.front(), pick);
          finish_alone(fork, passes.back(), other);
          return;
        }
      }
      if (!commit(engine, passes, pick)) return;
    }
    add_work(engine);
    AssignmentResult result = std::move(engine).finish();
    for (Pass& p : passes.subspan(1)) p.result = result;
    passes.front().result = std::move(result);
  }

  /// Flushes the call's counters into the installed registry (no-op when
  /// none is installed).
  void flush() const {
    obs::MetricsRegistry* reg = obs::metrics();
    if (reg == nullptr) return;
    reg->counter("assigner.assigns").add(1);
    reg->counter("assigner.ranking_rounds").add(rounds_);
    reg->counter("assigner.gamma_evals").add(work_.gamma_evals);
    reg->counter("assigner.widest_path_calls").add(work_.widest_path_calls);
  }

 private:
  /// Commits `pick`, or ends `passes` with no placement when it names no
  /// CT or no host.
  bool commit(GreedyEngine& engine, std::span<Pass> passes, Pick pick) {
    if (pick.ct == kInvalidId || pick.host == kInvalidId) {
      for (Pass& p : passes) {
        p.result = AssignmentResult{};
        p.result.message = "no placeable CT (disconnected network?)";
      }
      add_work(engine);
      return false;
    }
    engine.commit(pick.ct, pick.host);
    return true;
  }

  /// Commits `pick` for `pass` alone, then runs the pass to its end.
  void finish_alone(GreedyEngine& engine, Pass& pass, Pick pick) {
    if (commit(engine, {&pass, 1}, pick)) run(engine, {&pass, 1});
  }

  /// Adds a finished engine's counters to the call's.
  void add_work(const GreedyEngine& engine) {
    const EngineStats es = engine.stats();
    work_.gamma_evals += es.gamma_evals;
    work_.widest_path_calls += es.widest_path_calls;
  }

  /// One round's best-host evaluations (lines 7-14): every unplaced CT
  /// with its best host and γ, in CT order, plus the committed host of
  /// every placed CT.  Between commits the engine's widest-width trees
  /// are shared by every CT probing the same host.
  void evaluate_round(const GreedyEngine& engine) {
    const std::size_t total = engine.graph().ct_count();
    candidates_.clear();
    hosts_.assign(total, kInvalidId);
    for (CtId i = 0; i < static_cast<CtId>(total); ++i) {
      if (engine.placed(i)) {
        hosts_[i] = engine.host(i);
        continue;
      }
      double gi = -kInf;
      const NcpId ji = engine.best_host(i, &gi);
      candidates_.push_back({i, ji, gi});
    }
  }

  /// The CT `pass` commits next, and its host.
  Pick pick_for(const GreedyEngine& engine, Pass& pass) const {
    if (options_.dynamic_ranking) {
      // Line 16: the policy picks a CT by its best-host γ (decision
      // point 2; see SparcleAssignerOptions on the direction).
      policy::SelectContext ctx;
      ctx.net = problem_.net;
      ctx.graph = problem_.graph;
      ctx.most_constrained_pass = pass.most_constrained;
      ctx.ct_host = &hosts_;
      const std::size_t k = policy_.select_ct(ctx, candidates_);
      if (k >= candidates_.size()) return {};
      return {candidates_[k].ct, candidates_[k].host};
    }
    // Static-ranking ablation: the CT order is frozen after the first
    // evaluation round (ascending γ in a most-constrained pass, descending
    // otherwise); hosts are still chosen against current loads.
    if (pass.static_order.empty()) {
      std::vector<std::pair<double, CtId>> ranked;
      for (const policy::CtCandidate& c : candidates_)
        ranked.emplace_back(c.gamma, c.ct);
      std::sort(ranked.begin(), ranked.end());
      if (!pass.most_constrained) std::reverse(ranked.begin(), ranked.end());
      for (const auto& [g, i] : ranked) pass.static_order.push_back(i);
    }
    for (CtId i : pass.static_order)
      if (!engine.placed(i)) return {i, engine.best_host(i)};
    return {};
  }

  const AssignmentProblem& problem_;
  const SparcleAssignerOptions& options_;
  const policy::SchedulingPolicy& policy_;
  std::vector<policy::CtCandidate> candidates_;
  std::vector<NcpId> hosts_;
  std::uint64_t rounds_{0};
  EngineStats work_;
};

}  // namespace

AssignmentResult SparcleAssigner::assign(
    const AssignmentProblem& problem) const {
  obs::ScopedTimer span("assigner.assign");
  GreedyEngine engine(problem, options_.probe_with_min_bits_tt);
  engine.commit_pins();  // Alg. 2 lines 3-5
  engine.warm_probe_cache();

  // kBestOfBoth runs the argmin pass and the argmax pass and keeps the
  // higher rate, the argmin pass's on a tie.
  std::vector<Pass> passes;
  if (options_.ranking != Ranking::kLeastConstrainedFirst)
    passes.emplace_back(true);
  if (options_.ranking != Ranking::kMostConstrainedFirst)
    passes.emplace_back(false);
  Ranker ranker(problem, options_);
  ranker.run(engine, passes);
  ranker.flush();

  AssignmentResult best = std::move(passes.front().result);
  if (passes.size() == 2) {
    AssignmentResult& argmax = passes.back().result;
    if (!best.feasible || (argmax.feasible && argmax.rate > best.rate))
      best = std::move(argmax);
  }
  if (best.feasible && options_.local_search_rounds > 0)
    best = refine_placement(problem, best, {options_.local_search_rounds});
  return best;
}

}  // namespace sparcle
