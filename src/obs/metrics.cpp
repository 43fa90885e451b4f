#include "obs/metrics.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace sparcle::obs {

namespace {

/// CAS add (std::atomic<double>::fetch_add is C++20 but spotty pre-GCC12).
void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

/// Shortest round-trippable representation of a double.
std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void json_escape(std::ostream& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default: out << c;
    }
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty())
    throw std::invalid_argument("Histogram: bounds must be non-empty");
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    if (!(bounds_[i - 1] < bounds_[i]))
      throw std::invalid_argument("Histogram: bounds must strictly increase");
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, x);
}

const std::vector<double>& default_time_bounds_us() {
  static const std::vector<double> bounds{1.0, 10.0, 100.0, 1e3,
                                          1e4, 1e5,  1e6,   1e7};
  return bounds;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(bounds))
             .first;
  return *it->second;
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::uint64_t MetricsSnapshot::counter_or(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double MetricsSnapshot::gauge_or(const std::string& name) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.bounds = h->bounds();
    hs.buckets.reserve(h->bucket_count());
    for (std::size_t i = 0; i < h->bucket_count(); ++i)
      hs.buckets.push_back(h->bucket(i));
    hs.count = h->count();
    hs.sum = h->sum();
    snap.histograms.emplace(name, std::move(hs));
  }
  return snap;
}

void MetricsRegistry::write_json(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out << (first ? "\n" : ",\n") << "    \"";
    json_escape(out, name);
    out << "\": " << c->value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out << (first ? "\n" : ",\n") << "    \"";
    json_escape(out, name);
    out << "\": " << num(g->value());
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out << (first ? "\n" : ",\n") << "    \"";
    json_escape(out, name);
    out << "\": {\"bounds\": [";
    for (std::size_t i = 0; i < h->bounds().size(); ++i)
      out << (i ? ", " : "") << num(h->bounds()[i]);
    out << "], \"buckets\": [";
    for (std::size_t i = 0; i < h->bucket_count(); ++i)
      out << (i ? ", " : "") << h->bucket(i);
    out << "], \"count\": " << h->count() << ", \"sum\": " << num(h->sum())
        << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

void MetricsRegistry::write_csv(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "kind,name,key,value\n";
  for (const auto& [name, c] : counters_)
    out << "counter," << name << ",value," << c->value() << "\n";
  for (const auto& [name, g] : gauges_)
    out << "gauge," << name << ",value," << num(g->value()) << "\n";
  for (const auto& [name, h] : histograms_) {
    for (std::size_t i = 0; i < h->bounds().size(); ++i)
      out << "histogram," << name << ",le_" << num(h->bounds()[i]) << ","
          << h->bucket(i) << "\n";
    out << "histogram," << name << ",le_inf,"
        << h->bucket(h->bucket_count() - 1) << "\n";
    out << "histogram," << name << ",count," << h->count() << "\n";
    out << "histogram," << name << ",sum," << num(h->sum()) << "\n";
  }
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

std::string MetricsRegistry::to_csv() const {
  std::ostringstream os;
  write_csv(os);
  return os.str();
}

}  // namespace sparcle::obs
