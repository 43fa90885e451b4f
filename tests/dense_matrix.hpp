#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

/// \file dense_matrix.hpp
/// A dense row-major matrix and an in-place Cholesky solve on it, for the
/// tests' dense oracles: reference_cholesky.hpp and the dense Newton step
/// of test_fairness_reference.cpp.  The library's own solver is
/// SparseCholesky (core/smallmat.hpp).

namespace sparcle::testutil {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  /// An empty 0x0 matrix.
  Matrix() = default;
  /// A rows x cols matrix with every entry set to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Number of rows.
  std::size_t rows() const { return rows_; }
  /// Number of columns.
  std::size_t cols() const { return cols_; }
  /// Entry (r, c), unchecked.
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  /// Mutable entry (r, c), unchecked.
  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }

 private:
  std::size_t rows_{0};
  std::size_t cols_{0};
  std::vector<double> data_;
};

/// Solves A x = b for symmetric positive-definite A via Cholesky
/// factorization A = L L^T.  Only the lower triangle of `a` is read, and
/// it is overwritten in place with L (left-looking, one column at a time);
/// the upper triangle is never read or written.  Every entry of L is the
/// same k-ordered sum as in the textbook row-by-row algorithm, so the
/// factor and the solution match it bit for bit.  Returns false when A is
/// not (numerically) positive definite; `x` is then untouched and `a`
/// holds a partial factor.
inline bool cholesky_solve(Matrix& a, const std::vector<double>& b,
                           std::vector<double>& x) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.size() != n)
    throw std::invalid_argument("cholesky_solve: shape mismatch");
  for (std::size_t j = 0; j < n; ++j) {
    double sum = a(j, j);
    for (std::size_t k = 0; k < j; ++k) sum -= a(j, k) * a(j, k);
    if (sum <= 0 || !std::isfinite(sum)) return false;
    const double diag = std::sqrt(sum);
    a(j, j) = diag;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= a(i, k) * a(j, k);
      a(i, j) = s / diag;
    }
  }
  // Forward substitution L y = b, then back substitution L^T x = y.
  x = b;
  for (std::size_t i = 0; i < n; ++i) {
    double sum = x[i];
    for (std::size_t k = 0; k < i; ++k) sum -= a(i, k) * x[k];
    x[i] = sum / a(i, i);
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = x[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= a(k, ii) * x[k];
    x[ii] = sum / a(ii, ii);
  }
  return true;
}

}  // namespace sparcle::testutil
