#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "obs/chrome_trace.hpp"
#include "obs/decision_log.hpp"
#include "obs/metrics.hpp"

/// \file obs.hpp
/// Process-wide observability context.  Production code (assigner,
/// scheduler, simulator) reads the installed sinks through the accessors
/// below; when nothing is installed every accessor is a single relaxed
/// atomic load returning nullptr and all instrumentation collapses to
/// no-ops — the overhead budget (tools/bench_assign.sh gates 3% on
/// BM_SparcleAssignNetworkSize/32) is enforced against that state.
///
/// Ownership stays with the installer: install() stores raw pointers and
/// the objects must outlive the instrumented calls (the CLI installs
/// stack-allocated sinks around the scheduler run and uninstalls before
/// they go out of scope).  Installation is process-global, so concurrent
/// schedulers share sinks — every sink type is itself thread-safe.

namespace sparcle::obs {

/// The sinks to install; any pointer may be null to disable that facet.
struct Observability {
  MetricsRegistry* metrics{nullptr};
  ChromeTraceCollector* trace{nullptr};
  DecisionLog* decisions{nullptr};
};

namespace detail {
struct Globals {
  std::atomic<MetricsRegistry*> metrics{nullptr};
  std::atomic<ChromeTraceCollector*> trace{nullptr};
  std::atomic<DecisionLog*> decisions{nullptr};
};
Globals& globals();
/// The request trace id active on this thread (0 = none).  Thread-local so
/// sinks can stamp rows/spans without threading an id through every call.
inline thread_local std::uint64_t t_trace_id = 0;
}  // namespace detail

/// The service-request trace id active on the calling thread, or 0 when no
/// request scope is open.  DecisionLog::record and ScopedTimer read this to
/// tag rows and spans automatically.
inline std::uint64_t current_trace() { return detail::t_trace_id; }
inline void set_current_trace(std::uint64_t id) { detail::t_trace_id = id; }

/// RAII trace scope: makes `id` the calling thread's active trace id for
/// the enclosing block, restoring the previous id (usually 0) on exit.
/// Scopes nest; the innermost id wins.
class ScopedTrace {
 public:
  explicit ScopedTrace(std::uint64_t id) : prev_(current_trace()) {
    set_current_trace(id);
  }
  ~ScopedTrace() { set_current_trace(prev_); }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  std::uint64_t prev_;
};

/// Installs (replaces) the process-wide sinks.
void install(const Observability& o);
/// Resets every sink to null (instrumentation becomes no-ops again).
void uninstall();

inline MetricsRegistry* metrics() {
  return detail::globals().metrics.load(std::memory_order_relaxed);
}
inline ChromeTraceCollector* trace_collector() {
  return detail::globals().trace.load(std::memory_order_relaxed);
}
inline DecisionLog* decision_log() {
  return detail::globals().decisions.load(std::memory_order_relaxed);
}

/// RAII install for tests and short scopes: installs on construction,
/// restores the previous sinks on destruction.
class ScopedInstall {
 public:
  explicit ScopedInstall(const Observability& o)
      : prev_{metrics(), trace_collector(), decision_log()} {
    install(o);
  }
  ~ScopedInstall() { install(prev_); }
  ScopedInstall(const ScopedInstall&) = delete;
  ScopedInstall& operator=(const ScopedInstall&) = delete;

 private:
  Observability prev_;
};

/// RAII phase timer.  While a trace collector is installed the span lands
/// in the Chrome trace; while a metrics registry is installed the duration
/// is observed into the histogram "<name>.us" (decade buckets, µs).  With
/// neither installed the constructor does one pointer load each and the
/// destructor returns immediately — no clock reads, no allocation.  With
/// a registry installed the exit composes "<name>.us" on the stack and
/// allocates nothing once the histogram exists.
class ScopedTimer {
 public:
  /// `name` is a string literal of at most kMaxName characters.
  template <std::size_t N>
  explicit ScopedTimer(const char (&name)[N])
      : trace_(trace_collector()), metrics_(metrics()), name_(name) {
    static_assert(N - 1 <= kMaxName, "span name too long");
    if (trace_ != nullptr || metrics_ != nullptr)
      start_ = ChromeTraceCollector::Clock::now();
  }
  ~ScopedTimer() {
    if (trace_ == nullptr && metrics_ == nullptr) return;
    const auto end = ChromeTraceCollector::Clock::now();
    const double dur_us =
        std::chrono::duration<double, std::micro>(end - start_).count();
    if (trace_ != nullptr)
      trace_->record_complete(name_, trace_->to_origin_us(start_), dur_us,
                              current_trace());
    if (metrics_ != nullptr) {
      char key[kMaxName + 3];
      const std::size_t n = std::strlen(name_);
      std::memcpy(key, name_, n);
      std::memcpy(key + n, ".us", 3);
      metrics_->histogram(std::string_view(key, n + 3),
                          default_time_bounds_us())
          .observe(dur_us);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  static constexpr std::size_t kMaxName = 61;

  ChromeTraceCollector* trace_;
  MetricsRegistry* metrics_;
  const char* name_;
  ChromeTraceCollector::Clock::time_point start_;
};

}  // namespace sparcle::obs
