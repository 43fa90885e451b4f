#pragma once

#include <span>
#include <string>
#include <vector>

#include "model/ids.hpp"
#include "model/resource.hpp"

/// \file network.hpp
/// The dispersed computing network model of §III-B: a graph whose vertices
/// are networked computing points (NCPs) and whose edges are communication
/// links.  Links are undirected (shared bandwidth in both directions, the
/// paper's default, footnote 2).  Every element carries an independent
/// failure probability P_f used by the availability analysis.

namespace sparcle {

/// A computing node with multi-type computation capacity C_j^(r).
struct Ncp {
  std::string name;         ///< unique label within the Network
  ResourceVector capacity;  ///< per-resource-type capacity C_j^(r)
  double fail_prob{0.0};    ///< independent failure probability P_f
  std::string region;       ///< optional region label ("" = unlabeled)
};

/// A communication link with bandwidth capacity C_j^(b).  Undirected by
/// default (bandwidth shared across both directions); a directed link
/// carries traffic only from `a` to `b` (footnote 2 of the paper: model
/// as a directed graph when per-direction bandwidth is not shared).
struct Link {
  std::string name;       ///< unique label within the Network
  double bandwidth{0.0};  ///< bits per second
  NcpId a{kInvalidId};    ///< first endpoint (source when directed)
  NcpId b{kInvalidId};    ///< second endpoint (sink when directed)
  double fail_prob{0.0};  ///< independent failure probability P_f
  bool directed{false};   ///< traffic only flows a -> b when set
};

/// Immutable-after-build network graph.
class Network {
 public:
  /// An empty network with the default cpu-only schema.
  Network() = default;
  /// An empty network whose nodes will use `schema` for capacities.
  explicit Network(ResourceSchema schema) : schema_(std::move(schema)) {}

  /// Adds a node; its capacity vector must match the schema size, and
  /// every component must be finite and >= 0.  The optional `region`
  /// label groups NCPs for federated shard planning (shard_plan.hpp); an
  /// empty label means "unlabeled".
  NcpId add_ncp(std::string name, ResourceVector capacity,
                double fail_prob = 0.0, std::string region = {});
  /// Adds an undirected link (bandwidth shared across both directions).
  /// The bandwidth must be > 0 and finite; a NaN bandwidth is accepted and
  /// makes the link dead (no router traverses it).
  LinkId add_link(std::string name, NcpId a, NcpId b, double bandwidth,
                  double fail_prob = 0.0);
  /// Adds a directed link: traffic flows only `from` -> `to` (e.g. the
  /// uplink of an asymmetric access technology).
  LinkId add_directed_link(std::string name, NcpId from, NcpId to,
                           double bandwidth, double fail_prob = 0.0);

  /// The resource schema every node capacity vector follows.
  const ResourceSchema& schema() const { return schema_; }
  /// Number of nodes.
  std::size_t ncp_count() const { return ncps_.size(); }
  /// Number of links.
  std::size_t link_count() const { return links_.size(); }
  /// Node `j`, bounds-checked.
  const Ncp& ncp(NcpId j) const { return ncps_.at(j); }
  /// Link `l`, bounds-checked.
  const Link& link(LinkId l) const { return links_.at(l); }

  /// Links incident to NCP `j`, in insertion (ascending link-id) order.
  ///
  /// The span views one contiguous CSR array shared by all NCPs, so the
  /// shortest-path inner loops touch a single flat allocation instead of
  /// chasing a vector-of-vectors.  The CSR is rebuilt lazily after a
  /// mutation: the *first* call following add_ncp/add_link must not race
  /// with other readers (concurrent calls on an unmodified network are
  /// fine — they only read).
  std::span<const LinkId> incident_links(NcpId j) const {
    if (j < 0 || j >= static_cast<NcpId>(ncps_.size()))
      throw std::out_of_range("Network::incident_links: NCP out of range");
    if (!csr_valid_) rebuild_csr();
    return {csr_links_.data() + csr_off_[j],
            static_cast<std::size_t>(csr_off_[j + 1] - csr_off_[j])};
  }

  /// The endpoint of link `l` that is not `j`; throws if `j` is not an
  /// endpoint of `l`.
  NcpId other_end(LinkId l, NcpId j) const;

  /// True if traffic standing at NCP `from` may cross link `l` (always,
  /// except against the arrow of a directed link).
  bool can_traverse(LinkId l, NcpId from) const {
    const Link& lk = links_.at(l);
    if (lk.a == from) return true;
    if (lk.b == from) return !lk.directed;
    return false;
  }

  /// True if the undirected graph is connected (vacuously true when empty).
  bool connected() const;

  /// Failure probability of an element via its unified key.
  double fail_prob(const ElementKey& e) const {
    return e.kind == ElementKey::Kind::kNcp ? ncp(e.index).fail_prob
                                            : link(e.index).fail_prob;
  }

 private:
  void rebuild_csr() const;

  ResourceSchema schema_ = ResourceSchema::cpu_only();
  std::vector<Ncp> ncps_;
  std::vector<Link> links_;
  // Flat CSR adjacency: csr_off_ has ncp_count()+1 offsets into csr_links_
  // (each undirected link appears under both endpoints).  Mutable so the
  // logically-const accessor can rebuild it after add_ncp/add_link.
  mutable std::vector<std::int32_t> csr_off_;
  mutable std::vector<LinkId> csr_links_;
  mutable bool csr_valid_{false};
};

}  // namespace sparcle
