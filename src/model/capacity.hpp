#pragma once

#include <vector>

#include "model/ids.hpp"
#include "model/network.hpp"

/// \file capacity.hpp
/// A mutable view of the network's remaining capacities.
///
/// The assignment and allocation algorithms never mutate the Network
/// itself; they operate on CapacitySnapshot instances that start from the
/// full capacities and are scaled (priority prediction, eq. (6)) or reduced
/// (GR reservations, earlier task-assignment paths, §IV-D).

namespace sparcle {

class LoadMap;  // placement.hpp

/// Per-element residual capacities, index-compatible with a Network.
class CapacitySnapshot {
 public:
  /// An empty snapshot (no elements); assign from a populated one.
  CapacitySnapshot() = default;

  /// Snapshot holding the full capacities of `net`.
  explicit CapacitySnapshot(const Network& net);

  /// Number of nodes covered by the snapshot.
  std::size_t ncp_count() const { return ncp_.size(); }
  /// Number of links covered by the snapshot.
  std::size_t link_count() const { return link_.size(); }

  /// Residual resource vector of node `j`.
  const ResourceVector& ncp(NcpId j) const { return ncp_.at(j); }
  /// Mutable residual resource vector of node `j`.
  ResourceVector& ncp(NcpId j) { return ncp_.at(j); }
  /// Residual bandwidth of link `l`.
  double link(LinkId l) const { return link_.at(l); }
  /// Mutable residual bandwidth of link `l`.
  double& link(LinkId l) { return link_.at(l); }

  /// Capacity of resource `r` on element `e` (for links, `r` is ignored —
  /// bandwidth is the only link resource).
  double element(const ElementKey& e, std::size_t r) const {
    return e.kind == ElementKey::Kind::kNcp ? ncp_.at(e.index)[r]
                                            : link_.at(e.index);
  }

  /// Subtracts `rate` times the per-unit loads in `load`, clamping at zero.
  /// Used to reserve the resources a committed task-assignment path
  /// consumes: C_j^(r) - r1 * sum_i y_ij a_i^(r)  (§IV-D).
  void subtract_scaled(const LoadMap& load, double rate);

  /// Multiplies the capacity of every element in `elements` by `factor`
  /// (the priority-share prediction of eq. (6)).
  void scale_elements(const std::vector<ElementKey>& elements, double factor);

 private:
  std::vector<ResourceVector> ncp_;
  std::vector<double> link_;
};

}  // namespace sparcle
