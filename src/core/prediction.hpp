#pragma once

#include <unordered_map>
#include <vector>

#include "model/capacity.hpp"
#include "model/ids.hpp"
#include "model/network.hpp"

/// \file prediction.hpp
/// Priority-share capacity prediction, eq. (6) of §IV-D.
///
/// Before running the task-assignment algorithm for an arriving BE
/// application J, SPARCLE predicts how much of each element's capacity J
/// would receive once the proportional-fair allocation (4) runs: on an
/// element hosting tasks of already-placed BE applications J_n, J's share
/// is P_J / (P_J + Σ_{J' ∈ J_n} P_{J'})  (Theorem 3; the paper's worked
/// example — P_b = 2 P_a gives 2/3 C — fixes the denominator convention).
/// This makes the final allocation approximately independent of arrival
/// order.

namespace sparcle {

/// Scales each element of `competing` in `scratch` (capacities already
/// net of GR reservations) by the eq. (6) share of an arriving
/// application with `new_priority` > 0.  `competing` maps an element
/// to the total priority of the placed BE applications using it, each
/// counted once however many of its paths cross the element (the
/// scheduler maintains it incrementally); an element whose total is not
/// positive keeps its capacity.  Elements are scaled independently, so
/// the (unordered) map's iteration order does not affect the result.
void apply_priority_shares(
    CapacitySnapshot& scratch,
    const std::unordered_map<ElementKey, double>& competing,
    double new_priority);

}  // namespace sparcle
