#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

/// \file metrics.hpp
/// A lock-cheap registry of named counters, gauges, and fixed-bucket
/// histograms.  Registration (name lookup) takes a mutex; every update on a
/// registered instrument is a relaxed atomic, so hot paths grab the
/// instrument pointer once and then update wait-free.  Snapshots export as
/// JSON (machine-readable, parse-back tested) or CSV (spreadsheet-ready).
///
/// The metric name catalog lives in docs/observability.md; instrument names
/// use dotted lowercase (`assigner.memo.hits`).

namespace sparcle::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins scalar (also offers a monotone max update).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if larger (CAS loop; racing maxes both land).
  void max(double v) {
    double cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram.  Bucket i counts observations x <= bounds[i]
/// (first matching bound); one implicit overflow bucket catches the rest.
/// Bounds are fixed at registration so concurrent observes never resize.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Bucket count for index i in [0, bounds().size()]; the last index is
  /// the overflow bucket.
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::size_t bucket_count() const { return bounds_.size() + 1; }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default bounds for ScopedTimer duration histograms, in microseconds
/// (1 µs .. 10 s, one bucket per decade).
const std::vector<double>& default_time_bounds_us();

/// Point-in-time copy of one histogram's state.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (overflow last)
  std::uint64_t count{0};
  double sum{0.0};
};

/// Point-in-time copy of a whole registry (plus any derived gauges a
/// caller merges in).  This is the single input of the Prometheus
/// exposition writer (prometheus.hpp) and the centralized source of the
/// placement service's ServiceStats, so a newly registered instrument can
/// never silently miss a snapshot path.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Counter value by name (0 when absent).
  std::uint64_t counter_or(const std::string& name) const;
  /// Gauge value by name (0.0 when absent).
  double gauge_or(const std::string& name) const;
};

/// Named instrument registry.  Instrument references stay valid for the
/// registry's lifetime (instruments are never removed).
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Returns the histogram named `name`, creating it with a copy of
  /// `bounds` on first use.  Later calls ignore `bounds` (the first
  /// registration wins) and allocate nothing.
  Histogram& histogram(std::string_view name,
                       const std::vector<double>& bounds);
  /// The histogram if it exists, else nullptr (no creation).
  const Histogram* find_histogram(std::string_view name) const;

  /// Structured copy of every registered instrument (export layers and
  /// the service stats path consume this instead of touching instruments
  /// field by field).
  MetricsSnapshot snapshot() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {"bounds": [...], "buckets": [...], "count": N, "sum": S}}}
  std::string to_json() const;
  /// Rows of kind,name,key,value; histograms flatten to one row per
  /// bucket (key "le_<bound>" / "le_inf") plus "count" and "sum".
  std::string to_csv() const;
  void write_json(std::ostream& out) const;
  void write_csv(std::ostream& out) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace sparcle::obs
