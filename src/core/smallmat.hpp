#pragma once

#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

/// \file smallmat.hpp
/// Linear algebra for the interior-point fairness solver: a sparse
/// Cholesky solve for symmetric positive-definite systems with a fixed
/// pattern, ordered by minimum degree.  Not a general-purpose BLAS.

namespace sparcle {

/// The off-diagonal pattern of a symmetric n x n matrix: each pair
/// (i, j) of `entries` says A(i, j) and A(j, i) may be nonzero.  Repeats
/// and pairs with i == j are ignored.
struct SymmetricPattern {
  std::size_t n{0};                                          ///< dimension
  std::vector<std::pair<std::size_t, std::size_t>> entries;  ///< (i, j)
};

/// Minimum-degree elimination order of `pattern`: `order[k]` is the
/// index eliminated k-th.  Each step eliminates a vertex of least degree
/// in the elimination graph, the lowest index on ties, and joins its
/// neighbours into a clique.  The order is therefore a function of the
/// pattern alone, and a full pattern keeps the natural order.  Throws
/// std::invalid_argument when an entry names an index >= n.  Costs n^2
/// bits and O(n^2 + e n / 64) time for a factor with e sparse entries.
std::vector<std::size_t> minimum_degree_order(const SymmetricPattern& pattern);

/// Cholesky solve of a symmetric positive-definite system whose pattern
/// is fixed while its values change.  Construction is the symbolic phase:
/// the minimum_degree_order() of the pattern and the factor's layout.
/// The factor is stored as one sparse column per elimination step up to
/// the step where the remaining graph becomes a clique, then as one
/// dense lower-triangular block for that clique (the whole matrix when
/// the pattern is full).
///
/// Numerics: with P the permutation of order(), every factor entry and
/// every entry of x is the same k-ordered sum as in the textbook dense
/// Cholesky solve of P A P^T; the skipped terms are products with
/// structural zeros, so x equals that solve bit for bit whenever A's
/// entries and b are finite and none of them is -0.
class SparseCholesky {
 public:
  /// The symbolic phase for `pattern` (see minimum_degree_order()).
  explicit SparseCholesky(const SymmetricPattern& pattern);

  /// The dimension n.
  std::size_t size() const { return order_.size(); }
  /// `order()[k]` is the index eliminated k-th.
  const std::vector<std::size_t>& order() const { return order_; }
  /// Indices in the trailing dense block (>= 1 unless n == 0).
  std::size_t clique_size() const { return size() - clique_start_; }
  /// Stored factor entries: the sparse columns (diagonal included) plus
  /// the clique block's lower triangle.  A dense factor has n(n+1)/2.
  std::size_t factor_entries() const { return values_.size(); }

  /// Position in values() of A's entry (i, j), either triangle: every
  /// diagonal entry and pattern pair has one.  Throws std::out_of_range
  /// for an entry the factor does not store (outside the pattern and its
  /// fill).
  std::size_t slot(std::size_t i, std::size_t j) const;

  /// A's entries, one per slot(); entries that are not in the pattern
  /// (fill) must be 0.  factor() overwrites them with the factor, so
  /// refill every entry before the next factor().
  std::vector<double>& values() { return values_; }

  /// Factors values() in place.  Returns false when A is not
  /// (numerically) positive definite; values() then holds a partial
  /// factor, which solve_factored() must not be given.
  bool factor();

  /// Solves A x = b with the factor the last successful factor() left in
  /// values(), as often as needed: each solve equals solve() on the same
  /// A and b bit for bit.  Throws std::invalid_argument when
  /// b.size() != size().
  void solve_factored(const std::vector<double>& b, std::vector<double>& x);

  /// factor(), then solve_factored().  Returns false when the
  /// factorization fails; `x` is then untouched.  Throws
  /// std::invalid_argument when b.size() != size().
  bool solve(const std::vector<double>& b, std::vector<double>& x);

 private:
  /// Slot of the factor entry at elimination positions (r, c), r >= c.
  std::size_t slot_at(std::size_t r, std::size_t c) const;

  std::vector<std::size_t> order_;
  std::vector<std::size_t> position_;  ///< inverse of order_
  std::size_t clique_start_{0};        ///< first position in the clique
  /// Sparse column k (k < clique_start_) is values_[col_start_[k] ..
  /// col_start_[k + 1]): its diagonal, then its rows in ascending
  /// position; row_[s] is the position of slot s.  The clique's packed
  /// lower triangle follows, row by row.
  std::vector<std::size_t> col_start_;
  std::vector<std::size_t> row_;
  /// For each sparse column k and each pair of its rows p <= q, in order,
  /// the slot of factor entry (q, p) that l(q, k) l(p, k) updates.
  std::vector<std::size_t> update_;
  std::vector<double> values_;
  std::vector<double> work_;  ///< b in elimination order while solving
};

}  // namespace sparcle
