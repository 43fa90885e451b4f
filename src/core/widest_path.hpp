#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "model/capacity.hpp"
#include "model/ids.hpp"
#include "model/network.hpp"
#include "model/placement.hpp"

/// \file widest_path.hpp
/// Algorithm 1: the modified Dijkstra that finds the best path for a TT —
/// the path whose minimum link weight is maximal, where the weight of link
/// l is the processing rate the TT would see on it:
///   weight(l) = C_l^(b) / (a_k^(b) + Σ_{TTs already on l} a^(b)).
///
/// The kernel (widest_path_buffered / widest_widths_to) is a template
/// over the weight functor and runs on a caller-owned reusable
/// WidestPathWorkspace, so repeated queries pay no allocations after
/// warm-up.  widest_widths_to answers one root against every source at
/// once: γ's link terms (eq. (2)) read a whole candidate scan off it.

namespace sparcle {

/// Result of a widest (maximum-bottleneck) path query.
struct WidestPathResult {
  bool reachable{false};  ///< a usable path exists
  /// The max-min weight along the path; +infinity when from == to.
  double width{0.0};
  /// Links from source to destination, in hop order; empty when from == to.
  std::vector<LinkId> links;
};

/// Caller-owned scratch buffers for the Dijkstra kernel.  Buffers are
/// epoch-stamped: reset between queries is O(1) (a counter bump), and only
/// nodes actually touched by a query are ever written.  Networks of at
/// most 64 nodes — the common dispersed-site size — take a faster route:
/// touched/settled state lives in two uint64_t bitmasks instead of the
/// stamp arrays, so the membership tests in the relax loop are single-bit
/// probes.  One workspace may be reused across networks of different
/// sizes and across different weight functors; it must not be shared by
/// concurrent queries.
///
/// The frontier is a flat 4-ary max-heap keyed by (width desc, node id
/// asc).  Because a node is only re-pushed with a strictly larger width,
/// every live (width, node) entry is distinct, and the key order is total;
/// any valid heap therefore pops entries in exactly the same sequence as
/// the binary std::push_heap it replaced — the arity is a constant-factor
/// change (shallower tree, sibling scan over one cache line), not a
/// behavioral one.  Only the root and NCPs with two or more incident links
/// ever enter it: run_widest_dijkstra settles a one-link NCP (a star
/// region's leaf) the moment its only neighbour relaxes it.
class WidestPathWorkspace {
 public:
  /// Sizes the buffers for an `n`-node network and opens a new epoch.
  void prepare(std::size_t n) {
    small_ = n <= 64;
    if (phi_.size() < n) {
      phi_.resize(n);
      prev_.resize(n);
      stamp_.assign(n, 0);
      done_.assign(n, 0);
    }
    if (small_) {
      touched_mask_ = 0;
      done_mask_ = 0;
    } else if (++epoch_ == 0) {  // epoch counter wrapped: hard-reset stamps
      std::fill(stamp_.begin(), stamp_.end(), 0);
      std::fill(done_.begin(), done_.end(), 0);
      epoch_ = 1;
    }
    heap_.clear();
  }

  // Kernel state, valid for nodes touched since the last prepare().

  /// Best width reaching `v` this epoch (-infinity when untouched).
  double phi(NcpId v) const { return touched(v) ? phi_[v] : -kInf_; }
  /// The link `v` was best reached through (kInvalidId when untouched).
  LinkId prev(NcpId v) const { return touched(v) ? prev_[v] : kInvalidId; }
  /// Records width `width` reaching `v` via link `via`.
  void relax(NcpId v, double width, LinkId via) {
    phi_[v] = width;
    prev_[v] = via;
    if (small_)
      touched_mask_ |= std::uint64_t{1} << v;
    else
      stamp_[v] = epoch_;
  }
  /// True once `v` was settled this epoch.
  bool done(NcpId v) const {
    return small_ ? ((done_mask_ >> v) & 1u) != 0 : done_[v] == epoch_;
  }
  /// Settles `v` for this epoch.
  void mark_done(NcpId v) {
    if (small_)
      done_mask_ |= std::uint64_t{1} << v;
    else
      done_[v] = epoch_;
  }

  /// Pushes a frontier entry (sift-up over the 4-ary heap).
  void push(double width, NcpId v) {
    heap_.push_back({width, v});
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t p = (i - 1) >> 2;
      if (!less(heap_[p], heap_[i])) break;
      std::swap(heap_[p], heap_[i]);
      i = p;
    }
  }
  /// True when the frontier heap is empty.
  bool heap_empty() const { return heap_.empty(); }
  /// Pops the widest (width, node) frontier entry (sift-down, scanning the
  /// up-to-four children of each hole for the best successor).
  std::pair<double, NcpId> pop() {
    const Entry top = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      const std::size_t n = heap_.size();
      std::size_t i = 0;
      for (;;) {
        const std::size_t c0 = (i << 2) + 1;
        if (c0 >= n) break;
        std::size_t best = c0;
        const std::size_t cend = c0 + 4 < n ? c0 + 4 : n;
        for (std::size_t c = c0 + 1; c < cend; ++c)
          if (less(heap_[best], heap_[c])) best = c;
        if (!less(last, heap_[best])) break;
        heap_[i] = heap_[best];
        i = best;
      }
      heap_[i] = last;
    }
    return {top.width, top.node};
  }

 private:
  struct Entry {
    double width;
    NcpId node;
  };
  /// Max-heap order: wider first; among equal widths the lower NCP id is
  /// settled first — the deterministic tie-break rule.
  static bool less(const Entry& a, const Entry& b) {
    if (a.width != b.width) return a.width < b.width;
    return a.node > b.node;
  }
  bool touched(NcpId v) const {
    return small_ ? ((touched_mask_ >> v) & 1u) != 0 : stamp_[v] == epoch_;
  }
  static constexpr double kInf_ = std::numeric_limits<double>::infinity();

  std::vector<double> phi_;
  std::vector<LinkId> prev_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> done_;
  std::vector<Entry> heap_;
  std::uint32_t epoch_{0};
  std::uint64_t touched_mask_{0};
  std::uint64_t done_mask_{0};
  bool small_{false};
};

namespace detail {

/// Shared Dijkstra core: settles nodes outward from `root` in (width desc,
/// node id asc) order until `stop` is settled (returns true) or the
/// reachable set is exhausted (returns false; pass kInvalidId to settle
/// everything).  With kReversed the arrows of directed links are walked
/// backwards, so phi(v) is the width of the best v → root path instead of
/// root → v.  phi/prev for settled nodes live in `ws`.
///
/// A one-link NCP u is the exception to the heap order: it is settled as
/// soon as its only neighbour v relaxes it, without a heap push and pop.
/// Nothing but v can reach u, and v is settled, so u's width is final and
/// its last hop is forced; a settled node's phi/prev are therefore the
/// heap-only loop's, bit for bit.  If u is `stop`, the call returns there,
/// with the phi(stop) and route that the later pop would have given.
template <bool kReversed, typename WeightFn>
bool run_widest_dijkstra(const Network& net, NcpId root, NcpId stop,
                         const WeightFn& weight, WidestPathWorkspace& ws) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ws.prepare(net.ncp_count());
  ws.relax(root, kInf, kInvalidId);
  ws.push(kInf, root);
  while (!ws.heap_empty()) {
    const auto [w, v] = ws.pop();
    if (ws.done(v)) continue;
    ws.mark_done(v);
    if (v == stop) return true;
    // `w` is phi(v): the first non-settled pop of a node always carries its
    // current (largest) label, so re-reading the array is redundant.  The
    // CSR row guarantees v is an endpoint of every incident link, so the
    // other end is the branch-free `a ^ b ^ v` and can_traverse() reduces
    // to the directed-arrow test — one bounds-checked Link fetch per edge
    // instead of two.  The remaining usability tests are fused into one
    // flag so the compiler can keep the min and both comparisons
    // branch-free over the row; `lw > 0` doubles as the NaN filter (NaN
    // compares false).
    for (LinkId l : net.incident_links(v)) {
      const Link& lk = net.link(l);
      if (lk.directed && (kReversed ? lk.b : lk.a) != v) continue;  // wrong way
      const double lw = weight(l);
      const NcpId u = lk.a ^ lk.b ^ v;
      const double cand = lw < w ? lw : w;
      const bool improves = (lw > 0) & !ws.done(u) & (cand > ws.phi(u));
      if (improves) {
        ws.relax(u, cand, l);
        // A one-link NCP's width is final now (see above): settle it
        // instead of queuing it.
        if (net.incident_links(u).size() == 1) {
          ws.mark_done(u);
          if (u == stop) return true;
        } else {
          ws.push(cand, u);
        }
      }
    }
  }
  return false;
}

inline void check_endpoints(const Network& net, NcpId from, NcpId to,
                            const char* who) {
  if (from < 0 || to < 0 || from >= static_cast<NcpId>(net.ncp_count()) ||
      to >= static_cast<NcpId>(net.ncp_count()))
    throw std::invalid_argument(std::string(who) +
                                ": endpoint out of range");
}

}  // namespace detail

/// Widest path between two NCPs under an arbitrary per-link weight, with
/// route reconstruction.  Links with non-positive weight are unusable.
/// Deterministic tie-break (lower NCP index wins among equal widths).
/// Allocation-free apart from the result's link vector.
template <typename WeightFn>
WidestPathResult widest_path_buffered(const Network& net, NcpId from,
                                      NcpId to, const WeightFn& weight,
                                      WidestPathWorkspace& ws) {
  detail::check_endpoints(net, from, to, "widest_path");
  WidestPathResult result;
  if (from == to) {
    result.reachable = true;
    result.width = std::numeric_limits<double>::infinity();
    return result;
  }
  if (!detail::run_widest_dijkstra<false>(net, from, to, weight, ws))
    return result;  // cut off
  if (!(ws.phi(to) > 0) || ws.prev(to) == kInvalidId) return result;
  result.reachable = true;
  result.width = ws.phi(to);
  for (NcpId at = to; at != from;) {
    const LinkId l = ws.prev(at);
    result.links.push_back(l);
    at = net.other_end(l, at);
  }
  std::reverse(result.links.begin(), result.links.end());
  return result;
}

/// Widths of the widest v → `root` paths for every NCP v at once: one
/// Dijkstra from `root` over reversed arrows.  `out` is resized to the
/// NCP count; out[root] is +infinity and out[v] is 0 when v cannot reach
/// `root`.  Every out[v] equals widest_path_buffered(v, root).width bit
/// for bit: a width is a max of mins over the same link weights, which
/// involves no rounding, so the search direction cannot change it.
template <typename WeightFn>
void widest_widths_to(const Network& net, NcpId root, const WeightFn& weight,
                      WidestPathWorkspace& ws, std::vector<double>& out) {
  detail::check_endpoints(net, root, root, "widest_widths_to");
  detail::run_widest_dijkstra<true>(net, root, kInvalidId, weight, ws);
  out.resize(net.ncp_count());
  for (NcpId v = 0; v < static_cast<NcpId>(out.size()); ++v) {
    const double w = ws.phi(v);  // -infinity when never reached
    out[v] = w > 0 ? w : 0.0;
  }
}

/// Algorithm 1's per-link weight (eq. (3)): the rate a TT carrying
/// `tt_bits` would see on link l given residual capacities and the bits
/// already routed over l.
struct TtPathWeight {
  const CapacitySnapshot* cap;  ///< residual capacities (non-owning)
  const LoadMap* load;          ///< bits already routed per link (non-owning)
  double tt_bits;               ///< a_k^(b) of the TT being routed
  /// The rate the TT would see crossing link `l`.
  double operator()(LinkId l) const {
    const double denom = tt_bits + load->link_load(l);
    if (denom <= 0)
      return std::numeric_limits<double>::infinity();  // zero-bit TT: free
    return cap->link(l) / denom;
  }
};

/// Algorithm 1 proper: the best path P*_k(from, to) for a TT carrying
/// `tt_bits` per data unit, given residual `cap` and the bits already
/// placed on each link in `load` (eq. (3)).
WidestPathResult best_tt_path(const Network& net, const CapacitySnapshot& cap,
                              const LoadMap& load, double tt_bits, NcpId from,
                              NcpId to, WidestPathWorkspace& ws);

/// Load-oblivious hop-count shortest path (BFS, deterministic tie-break).
/// This is the routing the non-network-aware baselines use; `reachable`
/// is false when the NCPs are disconnected.  `width` reports the minimum
/// raw bandwidth along the route (informational).  Honors the same
/// "unusable link" rule as widest_path_buffered: links with non-positive
/// (or NaN) bandwidth are never traversed.
WidestPathResult shortest_hop_path(const Network& net, NcpId from, NcpId to);

}  // namespace sparcle
