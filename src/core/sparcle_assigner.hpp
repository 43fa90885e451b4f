#pragma once

#include "core/assignment.hpp"
#include "policy/policy.hpp"

/// \file sparcle_assigner.hpp
/// SPARCLE's dynamic-ranking task-assignment algorithm (Algorithm 2).
///
/// Tasks are placed one at a time.  Each round, for every unplaced CT i and
/// every candidate host j, γ_{i,j} (eq. (2)) estimates the bottleneck
/// processing rate the placement would impose, combining (a) the host's
/// residual computation capacity over all resource types and (b) the widest
/// paths (Algorithm 1) towards the hosts of all *placed reachable* CTs of
/// i, probed with the minimum-bit TT of G(i,i').  The CT whose best-host
/// rate is smallest — the most constrained task — is committed first
/// (line 16), and the routes of the TTs linking it to already-placed
/// neighbours are committed along their widest paths.

namespace sparcle {

/// Configuration knobs (defaults reproduce the paper's algorithm; the
/// alternatives feed the ablation benchmarks).
struct SparcleAssignerOptions {
  /// If false, CTs are ranked once up-front by their best-host rate
  /// instead of re-ranking after every commitment (ablation: the dynamic
  /// ranking is the paper's key differentiator vs GS/GRand).
  bool dynamic_ranking{true};
  /// If false, probe paths towards reachable CTs with the *maximum*-bit TT
  /// of G(i,i') instead of the minimum (ablation of Alg. 2 line 12).
  bool probe_with_min_bits_tt{true};
  /// Which CT to commit each round (Alg. 2 line 16).  The paper is
  /// self-contradictory: the prose says i* = argmax_i γ_{i,j*_i} while
  /// the listing says argmin (most-constrained CT first).  The argmin
  /// reading is the only one consistent with the paper's §V-B claim that
  /// SPARCLE degenerates to GS in the NCP-bottleneck case, and it wins
  /// that regime by a wide margin; the argmax reading grows the placement
  /// outward from the pinned sources/sinks and wins some balanced
  /// instances.  The default runs both and keeps the better placement
  /// (still polynomial; see bench_ablations for the measured tradeoff).
  /// The two passes share one engine, and so every round, until their
  /// picks first differ.
  enum class Ranking {
    kMostConstrainedFirst,   ///< the Algorithm 2 listing (argmin)
    kLeastConstrainedFirst,  ///< the §IV-B prose (argmax)
    kBestOfBoth,  ///< run both, keep the higher rate (argmin's on a tie)
  };
  Ranking ranking{Ranking::kBestOfBoth};  ///< the commit rule in use
  /// Hill-climbing refinement rounds applied after the greedy (extension;
  /// 0 = the paper's algorithm).  See core/local_search.hpp.
  int local_search_rounds{0};

  /// Has no effect: each round is evaluated serially.  Kept only for
  /// source compatibility with callers that still set it.
  int eval_threads{0};

  /// Candidate-ranking policy plugin (decision point 2 of
  /// policy::SchedulingPolicy): each dynamic-ranking round hands the
  /// evaluated (CT, best host, γ) candidates to the policy, which picks
  /// the CT to commit.  Non-owning — the caller keeps the policy alive
  /// for the assigner's lifetime (Scheduler holds it via
  /// SchedulerOptions::policy).  A null policy means
  /// policy::DefaultPolicy, the paper's greedy; the static-ranking
  /// ablation path (dynamic_ranking = false) ignores the policy.
  const policy::SchedulingPolicy* policy{nullptr};
};

/// Algorithm 2 as an Assigner.
class SparcleAssigner : public Assigner {
 public:
  /// Assigner with the paper-default options.
  SparcleAssigner() = default;
  /// Assigner with explicit options (ablations, perf knobs).
  explicit SparcleAssigner(SparcleAssignerOptions options)
      : options_(options) {}

  std::string name() const override { return "SPARCLE"; }
  AssignmentResult assign(const AssignmentProblem& problem) const override;

 private:
  SparcleAssignerOptions options_;
};

}  // namespace sparcle
