#include "core/smallmat.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace sparcle {

namespace {

/// Factors A = L L^T in place on the lower triangle reached through
/// `row` (row(i)[j] is entry (i, j), j <= i), column j outer.  Column j
/// needs only the columns left of it, so each l(i, j) is the plain
/// k-ordered dot product; four rows run interleaved so their independent
/// subtraction chains overlap instead of waiting on one another.
template <class Row>
bool factor_in_place(Row row, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    double* lj = row(j);
    double sum = lj[j];
    for (std::size_t k = 0; k < j; ++k) sum -= lj[k] * lj[k];
    if (sum <= 0 || !std::isfinite(sum)) return false;
    const double diag = std::sqrt(sum);
    lj[j] = diag;
    std::size_t i = j + 1;
    for (; i + 4 <= n; i += 4) {
      double* l0 = row(i);
      double* l1 = row(i + 1);
      double* l2 = row(i + 2);
      double* l3 = row(i + 3);
      double s0 = l0[j], s1 = l1[j], s2 = l2[j], s3 = l3[j];
      for (std::size_t k = 0; k < j; ++k) {
        const double ljk = lj[k];
        s0 -= l0[k] * ljk;
        s1 -= l1[k] * ljk;
        s2 -= l2[k] * ljk;
        s3 -= l3[k] * ljk;
      }
      l0[j] = s0 / diag;
      l1[j] = s1 / diag;
      l2[j] = s2 / diag;
      l3[j] = s3 / diag;
    }
    for (; i < n; ++i) {
      double* li = row(i);
      double s = li[j];
      for (std::size_t k = 0; k < j; ++k) s -= li[k] * lj[k];
      li[j] = s / diag;
    }
  }
  return true;
}

/// Forward substitution L y = x, then back substitution L^T x = y, both
/// in x, with the factor of factor_in_place().
template <class Row>
void solve_in_place(Row row, std::size_t n, double* x) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = row(i);
    double sum = x[i];
    for (std::size_t k = 0; k < i; ++k) sum -= li[k] * x[k];
    x[i] = sum / li[i];
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = x[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= row(k)[ii] * x[k];
    x[ii] = sum / row(ii)[ii];
  }
}

/// Rows of a packed lower triangle: row i starts at i(i+1)/2.
struct PackedRows {
  double* base;
  double* operator()(std::size_t i) const { return base + i * (i + 1) / 2; }
};

/// The minimum-degree elimination of a pattern, stopped where the
/// remaining graph is a clique.
struct Elimination {
  std::vector<std::size_t> order;
  std::size_t clique_start{0};
  /// The neighbours of order[k] when it was eliminated, for
  /// k < clique_start, are neighbours[first[k] .. first[k + 1]).
  std::vector<std::size_t> first;
  std::vector<std::size_t> neighbours;
};

Elimination eliminate(const SymmetricPattern& pattern) {
  // The elimination graph as an n x n bit matrix, and each vertex's
  // degree in it (kDone once eliminated).
  const std::size_t n = pattern.n;
  const std::size_t words = (n + 63) / 64;
  constexpr std::uint64_t kOne = 1;
  constexpr std::size_t kDone = SIZE_MAX;
  std::vector<std::uint64_t> adj(n * words, 0);
  auto bits = [&](std::size_t i) { return adj.data() + i * words; };
  std::vector<std::size_t> degree(n, 0);
  auto link = [&](std::size_t i, std::size_t j) {
    std::uint64_t& word = bits(i)[j / 64];
    const std::uint64_t bit = kOne << (j % 64);
    if ((word & bit) == 0) {
      word |= bit;
      ++degree[i];
    }
  };
  for (const auto& [i, j] : pattern.entries) {
    if (i >= n || j >= n)
      throw std::invalid_argument(
          "minimum_degree_order: a pattern entry names no index");
    if (i == j) continue;
    link(i, j);
    link(j, i);
  }

  Elimination e;
  e.order.reserve(n);
  e.first.push_back(0);
  for (std::size_t left = n; left > 0; --left) {
    std::size_t v = 0;
    for (std::size_t i = 1; i < n; ++i)
      if (degree[i] < degree[v]) v = i;
    if (degree[v] + 1 == left) {
      // Every remaining vertex neighbours all the others: a clique, which
      // minimum degree eliminates in ascending index order.
      e.clique_start = e.order.size();
      for (std::size_t i = 0; i < n; ++i)
        if (degree[i] != kDone) e.order.push_back(i);
      return e;
    }
    const std::uint64_t* bv = bits(v);
    const std::size_t nb_first = e.neighbours.size();
    for (std::size_t w = 0; w < words; ++w)
      for (std::uint64_t b = bv[w]; b != 0; b &= b - 1)
        e.neighbours.push_back(w * 64 +
                               static_cast<std::size_t>(std::countr_zero(b)));
    for (std::size_t k = nb_first; k < e.neighbours.size(); ++k) {
      // u gains v's other neighbours and loses v; u's own bit, which
      // comes in with v's row, is cleared again.
      const std::size_t u = e.neighbours[k];
      std::uint64_t* bu = bits(u);
      std::size_t gained = 0;
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t added = bv[w] & ~bu[w];
        bu[w] |= added;
        for (; added != 0; added &= added - 1) ++gained;
      }
      bu[u / 64] &= ~(kOne << (u % 64));
      bu[v / 64] &= ~(kOne << (v % 64));
      degree[u] = degree[u] + gained - 2;
    }
    degree[v] = kDone;
    e.order.push_back(v);
    e.first.push_back(e.neighbours.size());
  }
  return e;
}

}  // namespace

std::vector<std::size_t> minimum_degree_order(
    const SymmetricPattern& pattern) {
  return eliminate(pattern).order;
}

SparseCholesky::SparseCholesky(const SymmetricPattern& pattern) {
  Elimination e = eliminate(pattern);
  order_ = std::move(e.order);
  clique_start_ = e.clique_start;
  const std::size_t n = order_.size();
  position_.resize(n);
  for (std::size_t k = 0; k < n; ++k) position_[order_[k]] = k;

  // Column k's rows are the positions of order[k]'s neighbours at its
  // elimination: its fill included, all of them after k.
  col_start_.reserve(clique_start_ + 1);
  row_.reserve(clique_start_ + e.neighbours.size());
  for (std::size_t k = 0; k < clique_start_; ++k) {
    col_start_.push_back(row_.size());
    row_.push_back(k);
    const std::size_t first = row_.size();
    for (std::size_t i = e.first[k]; i < e.first[k + 1]; ++i)
      row_.push_back(position_[e.neighbours[i]]);
    std::sort(row_.begin() + static_cast<std::ptrdiff_t>(first), row_.end());
  }
  col_start_.push_back(row_.size());
  const std::size_t nc = clique_size();
  values_.assign(row_.size() + nc * (nc + 1) / 2, 0.0);

  // For rows r <= t of column k, l(t, k) l(r, k) updates entry (t, r) of
  // column r.  Column k's rows after r are all rows of column r (k's
  // neighbours became a clique), so one forward walk down column r finds
  // them in order.
  std::size_t updates = 0;
  for (std::size_t k = 0; k < clique_start_; ++k) {
    const std::size_t len = col_start_[k + 1] - col_start_[k] - 1;
    updates += len * (len + 1) / 2;
  }
  update_.reserve(updates);
  for (std::size_t k = 0; k < clique_start_; ++k)
    for (std::size_t p = col_start_[k] + 1; p < col_start_[k + 1]; ++p) {
      const std::size_t c = row_[p];
      if (c >= clique_start_) {
        for (std::size_t q = p; q < col_start_[k + 1]; ++q)
          update_.push_back(slot_at(row_[q], c));
        continue;
      }
      std::size_t s = col_start_[c];
      for (std::size_t q = p; q < col_start_[k + 1]; ++q) {
        while (row_[s] != row_[q]) ++s;
        update_.push_back(s);
      }
    }
}

std::size_t SparseCholesky::slot_at(std::size_t r, std::size_t c) const {
  if (c >= clique_start_) {
    const std::size_t i = r - clique_start_, j = c - clique_start_;
    return col_start_.back() + i * (i + 1) / 2 + j;
  }
  const auto first = row_.begin() + static_cast<std::ptrdiff_t>(col_start_[c]);
  const auto last =
      row_.begin() + static_cast<std::ptrdiff_t>(col_start_[c + 1]);
  const auto it = std::lower_bound(first, last, r);
  if (it == last || *it != r)
    throw std::out_of_range("SparseCholesky::slot: entry is not stored");
  return static_cast<std::size_t>(it - row_.begin());
}

std::size_t SparseCholesky::slot(std::size_t i, std::size_t j) const {
  if (i >= size() || j >= size())
    throw std::out_of_range("SparseCholesky::slot: index out of range");
  const std::size_t pi = position_[i], pj = position_[j];
  return slot_at(std::max(pi, pj), std::min(pi, pj));
}

bool SparseCholesky::factor() {
  const std::size_t n = size();
  const std::size_t cs = clique_start_;
  double* l = values_.data();

  // Sparse columns in elimination order: finish column k, then subtract
  // its outer product from the columns it reaches, so every entry takes
  // its updates in ascending k as the dense kernel does.
  const std::size_t* target = update_.data();
  for (std::size_t k = 0; k < cs; ++k) {
    const std::size_t first = col_start_[k], last = col_start_[k + 1];
    const double sum = l[first];
    if (sum <= 0 || !std::isfinite(sum)) return false;
    const double diag = std::sqrt(sum);
    l[first] = diag;
    for (std::size_t s = first + 1; s < last; ++s) l[s] = l[s] / diag;
    for (std::size_t p = first + 1; p < last; ++p) {
      const double lpk = l[p];
      for (std::size_t q = p; q < last; ++q) l[*target++] -= l[q] * lpk;
    }
  }
  return factor_in_place(PackedRows{l + col_start_[cs]}, n - cs);
}

void SparseCholesky::solve_factored(const std::vector<double>& b,
                                    std::vector<double>& x) {
  const std::size_t n = size();
  if (b.size() != n)
    throw std::invalid_argument(
        "SparseCholesky::solve_factored: shape mismatch");
  const std::size_t cs = clique_start_;
  double* l = values_.data();
  const PackedRows clique{l + col_start_[cs]};

  // L y = P b over the sparse columns, the clique's two solves, then
  // L^T over the sparse columns backwards.
  work_.resize(n);
  double* y = work_.data();
  for (std::size_t k = 0; k < n; ++k) y[k] = b[order_[k]];
  for (std::size_t k = 0; k < cs; ++k) {
    const std::size_t first = col_start_[k], last = col_start_[k + 1];
    y[k] = y[k] / l[first];
    for (std::size_t s = first + 1; s < last; ++s) y[row_[s]] -= l[s] * y[k];
  }
  solve_in_place(clique, n - cs, y + cs);
  for (std::size_t k = cs; k-- > 0;) {
    const std::size_t first = col_start_[k], last = col_start_[k + 1];
    double sum = y[k];
    for (std::size_t s = first + 1; s < last; ++s) sum -= l[s] * y[row_[s]];
    y[k] = sum / l[first];
  }
  x.resize(n);
  for (std::size_t k = 0; k < n; ++k) x[order_[k]] = y[k];
}

bool SparseCholesky::solve(const std::vector<double>& b,
                           std::vector<double>& x) {
  if (b.size() != size())
    throw std::invalid_argument("SparseCholesky::solve: shape mismatch");
  if (!factor()) return false;
  solve_factored(b, x);
  return true;
}

}  // namespace sparcle
