/// \file test_assign_reference.cpp
/// SparcleAssigner against the point-to-point, floor-pruned γ it replaced
/// (tests/reference_assigner.hpp), on slices of the soak topology
/// (workload::soak_site, 16 NCPs per region) across the 64-NCP cut-over of
/// the Dijkstra workspace, under every ranking and both ablations.  Each
/// site variant stresses one way the tree kernel could drift from the
/// point-to-point one: directed links, dead (zero or NaN) links, an NCP no
/// route reaches, and all-equal capacities where every decision is a tie.
/// Hosts, routes and rates must match bit for bit, and so must every
/// best-host γ along the way.

#include <gtest/gtest.h>

#include "reference_assigner.hpp"
#include "testutil.hpp"

#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "core/sparcle_assigner.hpp"
#include "workload/arrivals.hpp"

namespace sparcle {
namespace {

enum class Variant {
  kPlain,
  kDirectedLinks,
  kDeadLinks,
  kDisconnectedNcp,
  kEqualBandwidths,
};

std::string variant_name(Variant v) {
  switch (v) {
    case Variant::kPlain:
      return "Plain";
    case Variant::kDirectedLinks:
      return "DirectedLinks";
    case Variant::kDeadLinks:
      return "DeadLinks";
    case Variant::kDisconnectedNcp:
      return "DisconnectedNcp";
    case Variant::kEqualBandwidths:
      return "EqualBandwidths";
  }
  return "?";
}

void PrintTo(Variant v, std::ostream* os) { *os << variant_name(v); }

/// A copy of `base` (same NCP ids and regions) reshaped for `variant`.
Network reshape(const Network& base, Variant variant, Rng& rng) {
  const bool equal = variant == Variant::kEqualBandwidths;
  Network net(base.schema());
  for (NcpId j = 0; j < static_cast<NcpId>(base.ncp_count()); ++j) {
    const Ncp& n = base.ncp(j);
    net.add_ncp(n.name, equal ? ResourceVector::scalar(40.0) : n.capacity,
                n.fail_prob, n.region);
  }
  for (LinkId l = 0; l < static_cast<LinkId>(base.link_count()); ++l) {
    const Link& lk = base.link(l);
    const double bw = equal ? 10.0 : lk.bandwidth;
    if (variant != Variant::kDirectedLinks) {
      net.add_link(lk.name, lk.a, lk.b, bw);
      continue;
    }
    // Most links become an asymmetric pair of arrows; some stay one-way
    // (in either orientation), which cuts some pins off from others.
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.6) {
      net.add_directed_link(lk.name + "+", lk.a, lk.b, bw);
      net.add_directed_link(lk.name + "-", lk.b, lk.a,
                            bw * rng.uniform(0.3, 1.5));
    } else if (u < 0.75) {
      net.add_directed_link(lk.name, lk.a, lk.b, bw);
    } else if (u < 0.85) {
      net.add_directed_link(lk.name, lk.b, lk.a, bw);
    } else {
      net.add_link(lk.name, lk.a, lk.b, bw);
    }
  }
  if (variant == Variant::kDirectedLinks) {
    // One-way chords give the search alternative routes to choose among.
    const auto n = static_cast<std::int64_t>(net.ncp_count());
    for (std::int64_t c = 0; c < n / 4; ++c) {
      const auto a = static_cast<NcpId>(rng.uniform_int(0, n - 1));
      const auto b = static_cast<NcpId>(rng.uniform_int(0, n - 1));
      if (a != b)
        net.add_directed_link("chord" + std::to_string(c), a, b,
                              rng.uniform(5.0, 40.0));
    }
  }
  if (variant == Variant::kDeadLinks) {
    // A NaN link passes add_link's (<= 0) check and must never be used.
    net.add_link("nan-chord", 0, static_cast<NcpId>(net.ncp_count() - 1),
                 std::numeric_limits<double>::quiet_NaN());
  }
  if (variant == Variant::kDisconnectedNcp) {
    // The roomiest NCP on the site, with no link at all: it wins every
    // node term and must lose every link term.
    net.add_ncp("island", ResourceVector::scalar(1e4), 0.0, "island");
  }
  return net;
}

class AssignReference : public ::testing::TestWithParam<Variant> {};

TEST_P(AssignReference, SoakSiteSlicesMatchPointToPointGamma) {
  using Ranking = SparcleAssignerOptions::Ranking;
  const Variant variant = GetParam();
  const std::size_t region_counts[] = {2, 5, 8};  // 32, 80, 128 NCPs
  for (std::size_t regions : region_counts) {
    const std::uint64_t seed =
        testutil::test_seed() + 20260808 + regions * 101 +
        static_cast<std::uint64_t>(variant);
    Rng rng(seed);
    const Network base = workload::soak_site(regions, 16, rng);
    const Network net = reshape(base, variant, rng);

    workload::ArrivalSpec spec;
    spec.arrivals = 3;
    spec.locality = 0.9;
    workload::ArrivalGenerator gen(base, spec, seed);
    workload::Arrival arrival;
    for (int app = 0; gen.next(arrival); ++app) {
      AssignmentProblem p;
      p.net = &net;
      p.graph = arrival.app.graph.get();
      p.capacities = CapacitySnapshot(net);
      p.pinned = arrival.app.pinned;
      if (variant == Variant::kDeadLinks) {
        for (LinkId l = 0; l < static_cast<LinkId>(net.link_count()); ++l) {
          const double u = rng.uniform(0.0, 1.0);
          if (u < 0.12)
            p.capacities.link(l) = 0.0;
          else if (u < 0.2)
            p.capacities.link(l) = std::numeric_limits<double>::quiet_NaN();
        }
      }

      std::vector<SparcleAssignerOptions> option_sets;
      for (Ranking r : {Ranking::kMostConstrainedFirst,
                        Ranking::kLeastConstrainedFirst,
                        Ranking::kBestOfBoth}) {
        SparcleAssignerOptions o;
        o.ranking = r;
        option_sets.push_back(o);
      }
      SparcleAssignerOptions static_rank;
      static_rank.ranking = Ranking::kMostConstrainedFirst;
      static_rank.dynamic_ranking = false;
      option_sets.push_back(static_rank);
      SparcleAssignerOptions max_bits;
      max_bits.probe_with_min_bits_tt = false;
      option_sets.push_back(max_bits);

      for (std::size_t o = 0; o < option_sets.size(); ++o) {
        const std::string label =
            variant_name(variant) + " regions=" + std::to_string(regions) +
            " app=" + std::to_string(app) + " options=" + std::to_string(o) +
            testutil::seed_message(seed);
        testutil::expect_same_assignment(
            SparcleAssigner(option_sets[o]).assign(p),
            testutil::reference_assign(p, option_sets[o], label),
            *p.graph, label);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sites, AssignReference,
    ::testing::Values(Variant::kPlain, Variant::kDirectedLinks,
                      Variant::kDeadLinks, Variant::kDisconnectedNcp,
                      Variant::kEqualBandwidths),
    [](const ::testing::TestParamInfo<Variant>& info) {
      return variant_name(info.param);
    });

}  // namespace
}  // namespace sparcle
