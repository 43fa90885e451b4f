#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

/// \file smallmat.hpp
/// Minimal dense linear algebra for the interior-point fairness solver:
/// a row-major matrix and a Cholesky solve for symmetric positive-definite
/// systems; not a general-purpose BLAS.

namespace sparcle {

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
bool cholesky_solve(Matrix& a, const std::vector<double>& b,
                    std::vector<double>& x);

}  // namespace sparcle
