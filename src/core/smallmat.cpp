#include "core/smallmat.hpp"

#include <cmath>

namespace sparcle {

bool cholesky_solve(Matrix& a, const std::vector<double>& b,
                    std::vector<double>& x) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.size() != n)
    throw std::invalid_argument("cholesky_solve: shape mismatch");

  // Factor A = L L^T in place, column j outer.  Column j needs only the
  // columns left of it, so each l(i, j) is the plain k-ordered dot
  // product; four rows run interleaved so their independent subtraction
  // chains overlap instead of waiting on one another.
  for (std::size_t j = 0; j < n; ++j) {
    const double* lj = &a(j, 0);
    double sum = lj[j];
    for (std::size_t k = 0; k < j; ++k) sum -= lj[k] * lj[k];
    if (sum <= 0 || !std::isfinite(sum)) return false;
    const double diag = std::sqrt(sum);
    a(j, j) = diag;
    std::size_t i = j + 1;
    for (; i + 4 <= n; i += 4) {
      const double* l0 = &a(i, 0);
      const double* l1 = &a(i + 1, 0);
      const double* l2 = &a(i + 2, 0);
      const double* l3 = &a(i + 3, 0);
      double s0 = l0[j], s1 = l1[j], s2 = l2[j], s3 = l3[j];
      for (std::size_t k = 0; k < j; ++k) {
        const double ljk = lj[k];
        s0 -= l0[k] * ljk;
        s1 -= l1[k] * ljk;
        s2 -= l2[k] * ljk;
        s3 -= l3[k] * ljk;
      }
      a(i, j) = s0 / diag;
      a(i + 1, j) = s1 / diag;
      a(i + 2, j) = s2 / diag;
      a(i + 3, j) = s3 / diag;
    }
    for (; i < n; ++i) {
      const double* li = &a(i, 0);
      double s = li[j];
      for (std::size_t k = 0; k < j; ++k) s -= li[k] * lj[k];
      a(i, j) = s / diag;
    }
  }

  // Forward substitution L y = b, then back substitution L^T x = y, both
  // in x.
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

}  // namespace sparcle
