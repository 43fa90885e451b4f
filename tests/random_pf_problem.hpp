#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/fairness.hpp"
#include "workload/rng.hpp"

/// \file random_pf_problem.hpp
/// Random feasible instances of problem (4) for the PF solver's property
/// and oracle tests.

namespace sparcle::testutil {

/// `apps` applications with 1–2 path variables each; every path loads
/// 1–3 distinct rows of `rows` constraint rows.
inline PfProblem random_problem(Rng& rng, std::size_t apps,
                                std::size_t rows) {
  PfProblem p;
  p.capacity.resize(rows);
  for (double& c : p.capacity) c = rng.uniform(10, 100);
  for (std::size_t a = 0; a < apps; ++a) {
    const std::size_t paths = static_cast<std::size_t>(rng.uniform_int(1, 2));
    p.app_priority.push_back(rng.uniform(0.5, 4.0));
    for (std::size_t k = 0; k < paths; ++k) {
      PfProblem::Column col;
      // Each path loads 1..3 random rows.
      const std::size_t touches =
          static_cast<std::size_t>(rng.uniform_int(1, 3));
      std::vector<char> used(rows, 0);
      for (std::size_t t = 0; t < touches; ++t) {
        const std::size_t row = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(rows) - 1));
        if (used[row]) continue;
        used[row] = 1;
        col.entries.emplace_back(row, rng.uniform(0.5, 5.0));
      }
      p.columns.push_back(std::move(col));
      p.var_app.push_back(a);
    }
  }
  return p;
}

}  // namespace sparcle::testutil
