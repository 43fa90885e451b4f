#pragma once

#include <algorithm>
#include <array>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

/// \file resource.hpp
/// Multi-type resource quantities (the paper's a_i^(r) and C_j^(r)).
///
/// A ResourceSchema names the computation resource types in play (e.g.
/// {"cpu"} or {"cpu", "memory"}).  A ResourceVector holds one quantity per
/// type.  Link bandwidth (the "(b)" resource) is kept as a plain scalar
/// elsewhere because it never mixes with node resources.

namespace sparcle {

/// Most resource types a schema or vector may hold: Fig. 12 uses two (cpu,
/// memory), and a small bound lets ResourceVector store them inline.
inline constexpr std::size_t kMaxResourceTypes = 4;

/// Names the computation resource types of a scenario.  All task
/// requirement vectors and NCP capacity vectors in one scenario must have
/// exactly `size()` entries, in schema order.
class ResourceSchema {
 public:
  /// Defaults to the single-type {"cpu"} schema.
  ResourceSchema() = default;
  /// Builds a schema from at most kMaxResourceTypes type names, in order.
  explicit ResourceSchema(std::vector<std::string> names)
      : names_(std::move(names)) {
    if (names_.size() > kMaxResourceTypes)
      throw std::invalid_argument("ResourceSchema: too many types");
  }

  /// Convenience single-type schema used by most of the paper's evaluation.
  static ResourceSchema cpu_only() { return ResourceSchema({"cpu"}); }
  /// Two-type schema used by the Fig. 12 multi-resource experiment.
  static ResourceSchema cpu_memory() {
    return ResourceSchema({"cpu", "memory"});
  }

  /// Number of resource types.
  std::size_t size() const { return names_.size(); }
  /// Name of resource type `r` (bounds-checked).
  const std::string& name(std::size_t r) const { return names_.at(r); }
  /// All type names in schema order.
  const std::vector<std::string>& names() const { return names_; }

  /// Schemas are equal when their name lists are equal.
  friend bool operator==(const ResourceSchema&,
                         const ResourceSchema&) = default;

 private:
  std::vector<std::string> names_{"cpu"};
};

/// A per-resource-type quantity vector.  Immutable size; element-wise
/// arithmetic helpers cover the load-accounting needs of the algorithms.
/// The at most kMax components are stored inline (the tail past size()
/// stays zero), so a snapshot or load map of N vectors is one block.
class ResourceVector {
 public:
  /// Most components a vector holds.
  static constexpr std::size_t kMax = kMaxResourceTypes;

  /// An empty (zero-type) vector.
  ResourceVector() = default;
  /// A vector of `n` <= kMax components, all set to `fill`.
  explicit ResourceVector(std::size_t n, double fill = 0.0) : n_(checked(n)) {
    std::fill_n(v_.begin(), n_, fill);
  }
  /// A vector from an explicit component list of at most kMax entries.
  ResourceVector(std::initializer_list<double> init)
      : n_(checked(init.size())) {
    std::copy(init.begin(), init.end(), v_.begin());
  }

  /// Single-type helper: a vector {q} for cpu-only schemas.
  static ResourceVector scalar(double q) { return ResourceVector{q}; }

  /// Number of components (must match the scenario schema's size()).
  std::size_t size() const { return n_; }
  /// Component `r`, bounds-checked.
  double operator[](std::size_t r) const { return v_[index(r)]; }
  /// Mutable component `r`, bounds-checked.
  double& operator[](std::size_t r) { return v_[index(r)]; }

  /// Element-wise addition; sizes must match.
  ResourceVector& operator+=(const ResourceVector& o) {
    check_same_size(o);
    for (std::size_t r = 0; r < n_; ++r) v_[r] += o.v_[r];
    return *this;
  }
  /// Element-wise subtraction; sizes must match.
  ResourceVector& operator-=(const ResourceVector& o) {
    check_same_size(o);
    for (std::size_t r = 0; r < n_; ++r) v_[r] -= o.v_[r];
    return *this;
  }
  /// Uniform scaling of every component.
  ResourceVector& operator*=(double s) {
    for (double& x : used()) x *= s;
    return *this;
  }
  /// Element-wise sum of two vectors.
  friend ResourceVector operator+(ResourceVector a, const ResourceVector& b) {
    a += b;
    return a;
  }
  /// Element-wise difference of two vectors.
  friend ResourceVector operator-(ResourceVector a, const ResourceVector& b) {
    a -= b;
    return a;
  }
  /// A copy of `a` with every component scaled by `s`.
  friend ResourceVector operator*(ResourceVector a, double s) {
    a *= s;
    return a;
  }

  /// True if every component is (numerically) zero.
  bool is_zero(double eps = 0.0) const {
    for (double x : used())
      if (x > eps || x < -eps) return false;
    return true;
  }

  /// Clamp all components below zero up to zero (used when subtracting
  /// reservations in the presence of floating-point slack).
  void clamp_nonnegative() {
    for (double& x : used())
      if (x < 0) x = 0;
  }

  /// Largest component (0 for vectors with no positive component).
  double max_component() const {
    double m = 0;
    for (double x : used())
      if (x > m) m = x;
    return m;
  }

  /// Exact element-wise equality.
  friend bool operator==(const ResourceVector&,
                         const ResourceVector&) = default;

 private:
  static std::size_t checked(std::size_t n) {
    if (n > kMax) throw std::invalid_argument("ResourceVector: size > kMax");
    return n;
  }
  std::size_t index(std::size_t r) const {
    if (r >= n_) throw std::out_of_range("ResourceVector index");
    return r;
  }
  std::span<double> used() { return {v_.data(), n_}; }
  std::span<const double> used() const { return {v_.data(), n_}; }
  void check_same_size(const ResourceVector& o) const {
    if (o.n_ != n_)
      throw std::invalid_argument("ResourceVector size mismatch");
  }

  std::size_t n_{0};
  std::array<double, kMax> v_{};
};

// Trivially copyable: a CapacitySnapshot or LoadMap of N NCPs copies as one
// block, where a heap member here would cost one allocation per NCP.
static_assert(std::is_trivially_copyable_v<ResourceVector>);

}  // namespace sparcle
