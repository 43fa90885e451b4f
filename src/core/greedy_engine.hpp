#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/assignment.hpp"
#include "core/widest_path.hpp"
#include "model/capacity.hpp"
#include "model/placement.hpp"

/// \file greedy_engine.hpp
/// Shared machinery for greedy one-CT-at-a-time assignment algorithms:
/// the γ_{i,j} evaluation of eq. (2), the widest-path TT routing, and the
/// incremental load bookkeeping.  SPARCLE's Algorithm 2 and the GS/GRand/
/// Random/T-Storm/VNE/HEFT/Cloud comparators all commit placements through
/// this engine, so they share identical routing and rate accounting — the
/// comparisons in the benchmarks isolate CT-placement quality.

namespace sparcle {

/// Work counters one engine accumulated over its lifetime (snapshot of the
/// internal relaxed atomics — safe to read while parallel evaluation runs,
/// exact once the evaluation round joined).  SparcleAssigner flushes these
/// into the installed obs::MetricsRegistry under `assigner.*`.
struct EngineStats {
  std::uint64_t gamma_evals{0};       ///< γ(i,j) evaluations
  std::uint64_t widest_path_calls{0}; ///< Dijkstra runs (probes + routing)
  std::uint64_t bnb_prunes{0};        ///< candidates cut by the exact bound
};

/// Incremental commit engine for one-CT-at-a-time assignment.
class GreedyEngine {
 public:
  /// How commit() routes TTs between hosts.
  enum class Routing {
    kWidestPath,    ///< Algorithm 1 (load-aware) — SPARCLE and Optimal
    kShortestHops,  ///< load-oblivious BFS — the non-network-aware baselines
  };

  /// Binds to the problem (which must outlive the engine).
  explicit GreedyEngine(const AssignmentProblem& problem,
                        bool probe_with_min_bits_tt = true,
                        Routing routing = Routing::kWidestPath);

  /// The bound problem's network.
  const Network& net() const { return *problem_->net; }
  /// The bound problem's task graph.
  const TaskGraph& graph() const { return *problem_->graph; }
  /// The bound problem's effective capacities.
  const CapacitySnapshot& capacities() const { return problem_->capacities; }

  /// True once CT `i` has been committed.
  bool placed(CtId i) const { return placed_[i] != 0; }
  /// Number of committed CTs.
  std::size_t placed_count() const { return placed_count_; }
  /// Host of committed CT `i` (kInvalidId otherwise).
  NcpId host(CtId i) const { return placement_.ct_host(i); }
  /// Per-unit loads of everything committed so far.
  const LoadMap& load() const { return load_; }

  /// γ_{i,j} (eq. (2)): the bottleneck rate placing CT i on NCP j would
  /// impose given everything committed so far.  0 when NCP j cannot reach
  /// the host of a placed reachable CT.  Uses the engine's internal
  /// scratch workspace — not safe to call concurrently; use the overload
  /// below with per-thread workspaces for parallel evaluation.
  double gamma(CtId i, NcpId j) const;

  /// γ_{i,j} with a caller-owned workspace and an exact branch-and-bound
  /// floor: evaluation aborts as soon as the running rate can no longer
  /// exceed `floor`, returning a value <= floor (possibly inexact) in that
  /// case and the exact γ otherwise.  Pass -infinity for an exact answer.
  /// Thread-safe across distinct workspaces while no commit is running
  /// (the engine state is read-only here); call warm_probe_cache() once
  /// before concurrent use.
  double gamma(CtId i, NcpId j, WidestPathWorkspace& ws, double floor) const;

  /// argmax_j γ_{i,j}; stores the γ value in *gamma_out when non-null.
  /// Deterministic tie-break: among hosts with equal γ the lowest NCP id
  /// wins.  This is the spec any reordered or parallel evaluation must
  /// match; the returned γ is always exact even though losing candidates
  /// are pruned against the incumbent.
  NcpId best_host(CtId i, double* gamma_out = nullptr) const;

  /// best_host with a caller-owned workspace (for parallel per-CT rounds).
  NcpId best_host(CtId i, WidestPathWorkspace& ws, double* gamma_out) const;

  /// Commits CT i to NCP j, booking its load and routing every TT towards
  /// already-placed direct neighbours along the widest path.
  void commit(CtId i, NcpId j);

  /// Commits all pinned CTs of the bound problem.
  void commit_pins();

  /// Precomputes the probe-TT bits of every related CT pair (Alg. 2 line
  /// 12: the min- or max-bit TT of G(i,i')).  The pairs are a static
  /// property of the task graph, so this is computed once and makes
  /// gamma() allocation-free; it is also required before calling gamma()
  /// from multiple threads.
  void warm_probe_cache();

  /// Finalizes: returns the (possibly incomplete) placement and rate.
  AssignmentResult finish() &&;

  /// Snapshot of the work counters (see EngineStats).
  EngineStats stats() const {
    return {gamma_evals_.load(std::memory_order_relaxed),
            widest_path_calls_.load(std::memory_order_relaxed),
            bnb_prunes_.load(std::memory_order_relaxed)};
  }

 private:
  /// min_r C_j^(r) / (a_i^(r) + existing load on j) — the node term of
  /// eq. (2) and an upper bound on γ(i,j).
  double node_term(CtId i, NcpId j) const;
  /// bits_per_unit of the probe TT of G(i, other) (cached when warm).
  double probe_bits(CtId i, CtId other) const;
  double compute_probe_bits(CtId i, CtId other) const;

  const AssignmentProblem* problem_;
  bool probe_min_bits_;
  Routing routing_;
  Placement placement_;
  LoadMap load_;
  std::vector<char> placed_;
  std::size_t placed_count_{0};
  /// probe_bits_[i * ct_count + other]; valid only when probe_warm_.
  std::vector<double> probe_bits_;
  bool probe_warm_{false};
  /// Scratch for the serial gamma()/best_host()/commit() entry points.
  mutable WidestPathWorkspace scratch_;
  /// Relaxed work counters (see stats()); atomic because the per-round
  /// candidate evaluation calls gamma()/best_host() from worker threads.
  mutable std::atomic<std::uint64_t> gamma_evals_{0};
  mutable std::atomic<std::uint64_t> widest_path_calls_{0};
  mutable std::atomic<std::uint64_t> bnb_prunes_{0};
};

}  // namespace sparcle
