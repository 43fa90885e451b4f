#include "core/smallmat.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "reference_cholesky.hpp"
#include "workload/rng.hpp"

namespace sparcle {
namespace {

using testutil::cholesky_solve;
using testutil::Matrix;

TEST(Matrix, ShapeAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(CholeskySolve, IdentitySystem) {
  Matrix a(3, 3, 0.0);
  for (int i = 0; i < 3; ++i) a(i, i) = 1.0;
  std::vector<double> x;
  ASSERT_TRUE(cholesky_solve(a, {1.0, 2.0, 3.0}, x));
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
  EXPECT_DOUBLE_EQ(x[2], 3.0);
}

TEST(CholeskySolve, KnownSpdSystem) {
  // A = [[4, 2], [2, 3]], b = [10, 8] -> x = [7/4, 3/2].
  Matrix a(2, 2);
  a(0, 0) = 4;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 3;
  std::vector<double> x;
  ASSERT_TRUE(cholesky_solve(a, {10.0, 8.0}, x));
  EXPECT_NEAR(x[0], 1.75, 1e-12);
  EXPECT_NEAR(x[1], 1.5, 1e-12);
}

TEST(CholeskySolve, RejectsIndefiniteMatrix) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 1;  // eigenvalues 3 and -1
  std::vector<double> x;
  EXPECT_FALSE(cholesky_solve(a, {1.0, 1.0}, x));
}

TEST(CholeskySolve, ShapeMismatchThrows) {
  Matrix a(2, 3);
  std::vector<double> x;
  EXPECT_THROW(cholesky_solve(a, {1.0, 2.0}, x), std::invalid_argument);
  Matrix b(2, 2, 1.0);
  EXPECT_THROW(cholesky_solve(b, {1.0}, x), std::invalid_argument);
}

TEST(CholeskySolve, RandomSpdRoundTrip) {
  // Build A = B^T B + I (SPD), pick x*, solve A x = A x*, compare.
  Rng rng(5);
  const std::size_t n = 6;
  for (int trial = 0; trial < 20; ++trial) {
    Matrix b(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.uniform(-1, 1);
    Matrix a(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t k = 0; k < n; ++k) a(i, j) += b(k, i) * b(k, j);
        if (i == j) a(i, j) += 1.0;
      }
    std::vector<double> x_star(n), rhs(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) x_star[i] = rng.uniform(-5, 5);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) rhs[i] += a(i, j) * x_star[j];
    std::vector<double> x;
    ASSERT_TRUE(cholesky_solve(a, rhs, x));
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_star[i], 1e-8);
  }
}

/// A random n x n SPD matrix B^T B + I, built in the lower triangle only;
/// the upper triangle is set to `upper`.
Matrix random_spd_lower(Rng& rng, std::size_t n, double upper) {
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.uniform(-1, 1);
  Matrix a(n, n, upper);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = i == j ? 1.0 : 0.0;
      for (std::size_t k = 0; k < n; ++k) sum += b(k, i) * b(k, j);
      a(i, j) = sum;
    }
  return a;
}

TEST(CholeskySolve, NeverReadsOrWritesTheUpperTriangle) {
  Rng rng(11);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t n : {1u, 2u, 5u, 9u, 33u}) {
    Matrix a = random_spd_lower(rng, n, nan);
    std::vector<double> rhs(n);
    for (double& r : rhs) r = rng.uniform(-5, 5);
    std::vector<double> want;
    ASSERT_TRUE(testutil::reference_cholesky_solve(a, rhs, want));
    std::vector<double> x;
    ASSERT_TRUE(cholesky_solve(a, rhs, x)) << "n " << n;
    ASSERT_EQ(x.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(std::isfinite(x[i])) << "n " << n << " i " << i;
      EXPECT_EQ(std::memcmp(&x[i], &want[i], sizeof(double)), 0)
          << "n " << n << " i " << i;
      for (std::size_t j = i + 1; j < n; ++j)
        EXPECT_TRUE(std::isnan(a(i, j))) << "upper (" << i << ", " << j
                                         << ") was written";
    }
  }
}

TEST(CholeskySolve, BitIdenticalToRowByRowReference) {
  // Every n from 1 to 130 covers each remainder of the four-row interleave
  // and the sizes of the PF Newton systems.
  Rng rng(12);
  for (std::size_t n = 1; n <= 130; ++n) {
    Matrix a = random_spd_lower(rng, n, 0.0);
    std::vector<double> rhs(n);
    for (double& r : rhs) r = rng.uniform(-5, 5);
    Matrix l;
    std::vector<double> want;
    ASSERT_TRUE(testutil::reference_cholesky_factor(a, l));
    ASSERT_TRUE(testutil::reference_cholesky_solve(a, rhs, want));
    std::vector<double> x;
    ASSERT_TRUE(cholesky_solve(a, rhs, x)) << "n " << n;
    ASSERT_EQ(x.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::memcmp(&x[i], &want[i], sizeof(double)), 0)
          << "n " << n << " x[" << i << "]";
      for (std::size_t j = 0; j <= i; ++j)
        ASSERT_EQ(std::memcmp(&a(i, j), &l(i, j), sizeof(double)), 0)
            << "n " << n << " L(" << i << ", " << j << ")";
    }
  }
}

TEST(CholeskySolve, RejectsMatricesThatAreNotPositiveDefinite) {
  // A negative last diagonal leaves every pivot but the last one valid; a
  // NaN below the diagonal first reaches the pivot of its own row.
  Rng rng(13);
  const std::vector<double> sentinel{42.0};
  for (std::size_t n : {3u, 6u, 11u}) {
    const std::vector<double> rhs(n, 1.0);
    Matrix a = random_spd_lower(rng, n, 0.0);
    a(n - 1, n - 1) = -1.0;
    std::vector<double> want;
    EXPECT_FALSE(testutil::reference_cholesky_solve(a, rhs, want));
    std::vector<double> x = sentinel;
    EXPECT_FALSE(cholesky_solve(a, rhs, x)) << "n " << n;
    EXPECT_EQ(x, sentinel) << "x must be untouched on failure";

    Matrix with_nan = random_spd_lower(rng, n, 0.0);
    with_nan(n / 2, 0) = std::numeric_limits<double>::quiet_NaN();
    x = sentinel;
    EXPECT_FALSE(cholesky_solve(with_nan, rhs, x)) << "n " << n;
    EXPECT_EQ(x, sentinel);
  }
}

// ---- SparseCholesky ------------------------------------------------------

/// The test patterns, as pairs (i, j) with j < i.
SymmetricPattern test_pattern(const std::string& kind, std::size_t n) {
  SymmetricPattern pattern{n, {}};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) {
      const bool in = kind == "full"     ? true
                      : kind == "banded" ? i - j <= 3
                      : kind == "block"  ? i / 7 == j / 7
                      : kind == "arrow"  ? j == 0
                                         : false;
      if (in) pattern.entries.emplace_back(i, j);
    }
  return pattern;
}

/// A random symmetric diagonally dominant (so positive-definite) matrix
/// on `pattern`, both triangles set.
Matrix random_spd_on(Rng& rng, const SymmetricPattern& pattern) {
  const std::size_t n = pattern.n;
  Matrix a(n, n, 0.0);
  for (const auto& [i, j] : pattern.entries)
    a(i, j) = a(j, i) = rng.uniform(-1, 1);
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0;
    for (std::size_t j = 0; j < n; ++j)
      if (j != i) off += std::abs(a(i, j));
    a(i, i) = 1.0 + off + rng.uniform(0, 1);
  }
  return a;
}

/// Writes A's pattern entries and diagonal into `chol`'s slots.
void fill(SparseCholesky& chol, const SymmetricPattern& pattern,
          const Matrix& a) {
  std::fill(chol.values().begin(), chol.values().end(), 0.0);
  for (std::size_t i = 0; i < pattern.n; ++i)
    chol.values()[chol.slot(i, i)] = a(i, i);
  for (const auto& [i, j] : pattern.entries)
    chol.values()[chol.slot(i, j)] = a(i, j);
}

TEST(SparseCholesky, BitIdenticalToDenseSolveOfThePermutedMatrix) {
  Rng rng(14);
  for (const char* kind : {"empty", "banded", "block", "arrow", "full"})
    for (std::size_t n = 1; n <= 130; ++n) {
      const SymmetricPattern pattern = test_pattern(kind, n);
      const Matrix a = random_spd_on(rng, pattern);
      std::vector<double> b(n);
      for (double& v : b) v = rng.uniform(-5, 5);

      SparseCholesky chol(pattern);
      ASSERT_EQ(chol.order(), minimum_degree_order(pattern));
      ASSERT_LE(chol.factor_entries(), n * (n + 1) / 2);
      fill(chol, pattern, a);
      std::vector<double> x;
      ASSERT_TRUE(chol.solve(b, x)) << kind << " n " << n;

      // The oracle: the row-by-row dense solve of P A P^T.
      const std::vector<std::size_t>& perm = chol.order();
      Matrix ap(n, n);
      std::vector<double> bp(n), yp;
      for (std::size_t i = 0; i < n; ++i) {
        bp[i] = b[perm[i]];
        for (std::size_t j = 0; j < n; ++j) ap(i, j) = a(perm[i], perm[j]);
      }
      ASSERT_TRUE(testutil::reference_cholesky_solve(ap, bp, yp));
      ASSERT_EQ(x.size(), n);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(std::memcmp(&x[perm[i]], &yp[i], sizeof(double)), 0)
            << kind << " n " << n << " position " << i;
    }
}

TEST(SparseCholesky, SolvesWithTheLastFactorMatchFullSolves) {
  Rng rng(16);
  for (const char* kind : {"empty", "banded", "block", "arrow", "full"})
    for (std::size_t n = 1; n <= 130; n += 7) {
      const SymmetricPattern pattern = test_pattern(kind, n);
      const Matrix a = random_spd_on(rng, pattern);
      std::vector<double> b1(n), b2(n);
      for (double& v : b1) v = rng.uniform(-5, 5);
      for (double& v : b2) v = rng.uniform(-5, 5);

      SparseCholesky chol(pattern);
      fill(chol, pattern, a);
      ASSERT_TRUE(chol.factor()) << kind << " n " << n;
      std::vector<double> x1, x2;
      chol.solve_factored(b1, x1);
      chol.solve_factored(b2, x2);
      for (const auto& [b, x] : {std::pair{b1, x1}, std::pair{b2, x2}}) {
        SparseCholesky fresh(pattern);
        fill(fresh, pattern, a);
        std::vector<double> want;
        ASSERT_TRUE(fresh.solve(b, want));
        ASSERT_EQ(x.size(), n);
        EXPECT_EQ(std::memcmp(x.data(), want.data(), n * sizeof(double)), 0)
            << kind << " n " << n;
      }
    }
}

TEST(SparseCholesky, FullPatternIsOneDenseBlockInNaturalOrder) {
  for (std::size_t n : {1u, 2u, 7u, 64u}) {
    const SparseCholesky chol(test_pattern("full", n));
    EXPECT_EQ(chol.clique_size(), n);
    EXPECT_EQ(chol.factor_entries(), n * (n + 1) / 2);
    for (std::size_t k = 0; k < n; ++k) EXPECT_EQ(chol.order()[k], k);
  }
}

TEST(SparseCholesky, ArrowHubIsEliminatedLastWithoutFill) {
  // Natural order would fill the whole factor; minimum degree takes the
  // leaves first, lowest index first, and leaves the hub for last.
  const std::size_t n = 9;
  const SparseCholesky chol(test_pattern("arrow", n));
  const std::vector<std::size_t> want{1, 2, 3, 4, 5, 6, 7, 0, 8};
  EXPECT_EQ(chol.order(), want);
  EXPECT_EQ(chol.clique_size(), 2u);  // the hub and the last leaf
  EXPECT_EQ(chol.factor_entries(), 2 * n - 1);
  EXPECT_THROW(chol.slot(1, 2), std::out_of_range);
  EXPECT_THROW(chol.slot(0, n), std::out_of_range);
  EXPECT_THROW(minimum_degree_order({1, {{0, 1}}}), std::invalid_argument);
}

TEST(SparseCholesky, RejectsMatricesThatAreNotPositiveDefinite) {
  // A negative pivot in a sparse column and one in the clique block.
  Rng rng(15);
  const std::vector<double> sentinel{42.0};
  const std::size_t n = 20;
  const SymmetricPattern pattern = test_pattern("banded", n);
  for (bool in_clique : {false, true}) {
    SparseCholesky chol(pattern);
    ASSERT_LT(chol.clique_size(), n);
    Matrix a = random_spd_on(rng, pattern);
    const std::size_t k = in_clique ? n - 1 : 0;
    const std::size_t i = chol.order()[k];
    a(i, i) = -1.0;
    fill(chol, pattern, a);
    std::vector<double> x = sentinel;
    EXPECT_FALSE(chol.solve(std::vector<double>(n, 1.0), x)) << in_clique;
    EXPECT_EQ(x, sentinel) << "x must be untouched on failure";
  }
  SparseCholesky chol(pattern);
  std::vector<double> x;
  EXPECT_THROW(chol.solve({1.0}, x), std::invalid_argument);
}

}  // namespace
}  // namespace sparcle
