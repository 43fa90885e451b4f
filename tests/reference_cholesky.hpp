#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "dense_matrix.hpp"

/// \file reference_cholesky.hpp
/// The textbook row-by-row dense Cholesky solve, kept as the oracle for
/// SparseCholesky and for the in-place left-looking cholesky_solve() of
/// dense_matrix.hpp: `a` is read (lower triangle only) and never
/// modified, the factor goes to `l`.

namespace sparcle::testutil {

/// Factors A = L L^T row by row (row i outer, column j <= i inner).
inline bool reference_cholesky_factor(const Matrix& a, Matrix& l) {
  const std::size_t n = a.rows();
  l = Matrix(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        if (sum <= 0 || !std::isfinite(sum)) return false;
        l(i, i) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  return true;
}

/// Solves A x = b with reference_cholesky_factor(); false when A is not
/// (numerically) positive definite.
inline bool reference_cholesky_solve(const Matrix& a,
                                     const std::vector<double>& b,
                                     std::vector<double>& x) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.size() != n)
    throw std::invalid_argument("reference_cholesky_solve: shape mismatch");
  Matrix l;
  if (!reference_cholesky_factor(a, l)) return false;

  // Forward substitution: L y = b.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
    y[i] = sum / l(i, i);
  }
  // Back substitution: L^T x = y.
  x.assign(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= l(k, ii) * x[k];
    x[ii] = sum / l(ii, ii);
  }
  return true;
}

}  // namespace sparcle::testutil
