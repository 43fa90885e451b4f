#pragma once

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

/// Work counters one engine accumulated over its lifetime.
/// SparcleAssigner flushes these into the installed obs::MetricsRegistry
/// under `assigner.*`.
struct EngineStats {
  std::uint64_t gamma_evals{0};       ///< γ(i,j) evaluations
  /// Dijkstra runs: widest-width tree builds for γ plus TT routes.
  std::uint64_t widest_path_calls{0};
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

  /// An engine in `other`'s state (commits, loads and current trees) that
  /// goes on alone: it shares no scratch with `other`, and its work
  /// counters start at zero, so the stats() of the two add up to the work
  /// both did.
  GreedyEngine(const GreedyEngine& other);
  /// Not assignable: copy-construct instead.
  GreedyEngine& operator=(const GreedyEngine&) = delete;

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
  /// the host of a placed related CT.  The link terms are read off
  /// widest-width trees rooted at those hosts (see widest_widths_to),
  /// built on first use and kept until a commit() routes a TT over a
  /// link.  Not safe to call concurrently.
  double gamma(CtId i, NcpId j) const;

  /// argmax_j γ_{i,j}; stores the γ value in *gamma_out when non-null.
  /// Deterministic tie-break: among hosts with equal γ the lowest NCP id
  /// wins.
  NcpId best_host(CtId i, double* gamma_out = nullptr) const;

  /// Commits CT i to NCP j, booking its load and routing every TT towards
  /// already-placed direct neighbours along the widest path.  A tree reads
  /// only link capacities and link loads, so a commit whose TTs all stay
  /// on one host (or find no route) keeps every tree.
  void commit(CtId i, NcpId j);

  /// Commits all pinned CTs of the bound problem.
  void commit_pins();

  /// Precomputes the probe-TT bits of every related CT pair (Alg. 2 line
  /// 12: the min- or max-bit TT of G(i,i')).  The pairs are a static
  /// property of the task graph, so this is computed once and spares
  /// gamma() the per-call TT scan.
  void warm_probe_cache();

  /// Finalizes: returns the (possibly incomplete) placement and rate.
  AssignmentResult finish() &&;

  /// Snapshot of the work counters (see EngineStats).
  EngineStats stats() const { return {gamma_evals_, widest_path_calls_}; }

 private:
  /// Widths towards one placed host for one probe-TT size: a
  /// widest_widths_to tree, current while `generation` matches the
  /// engine's.
  struct WidthTree {
    NcpId root{kInvalidId};
    double bits{0.0};
    std::uint64_t generation{0};
    std::vector<double> width;  ///< width[j]: j → root
  };

  /// min_r C_j^(r) / (a_i^(r) + existing load on j) — the node term of
  /// eq. (2).
  double node_term(CtId i, NcpId j) const;
  /// bits_per_unit of the probe TT of G(i, other) (cached when warm).
  double probe_bits(CtId i, CtId other) const;
  double compute_probe_bits(CtId i, CtId other) const;
  /// The current tree for (root, bits), building it if needed.
  const WidthTree& width_tree(NcpId root, double bits) const;
  /// Fills relative_widths_ with the trees towards the hosts of i's placed
  /// related CTs, in CT order.
  void collect_relative_widths(CtId i) const;
  /// γ(i, j) from node_term and the trees in relative_widths_.
  double gamma_from_trees(CtId i, NcpId j) const;

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
  /// Scratch for the Dijkstra runs of gamma()/best_host()/commit().
  mutable WidestPathWorkspace scratch_;
  /// Tree storage, reused across commits; a commit() that loads a link
  /// bumps generation_, which retires every tree.
  mutable std::vector<WidthTree> trees_;
  std::uint64_t generation_{1};
  /// width vectors of collect_relative_widths(), pointing into trees_.
  mutable std::vector<const double*> relative_widths_;
  mutable std::uint64_t gamma_evals_{0};
  mutable std::uint64_t widest_path_calls_{0};
};

}  // namespace sparcle
