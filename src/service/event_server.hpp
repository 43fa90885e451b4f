#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/scheduler_service.hpp"

/// \file event_server.hpp
/// Single-threaded event-loop front end for the placement service.  One
/// epoll loop (Linux; poll(2) elsewhere) owns every connection socket:
/// non-blocking accept, per-connection read/write buffers with
/// partial-frame reassembly, write backpressure via EPOLLOUT re-arm, and
/// an idle-connection sweep — no thread-per-connection.  The loop speaks
/// both wire codecs on one port: the first byte a connection sends pins it
/// to binary frames (binwire.hpp, magic 0xB5) or NDJSON lines (wire.hpp).
///
/// Scheduling work never blocks the loop.  `submit`/`remove` ride the
/// service's completion-callback API (SchedulerService::submit_async);
/// the callback posts the finished result to a completion queue and wakes
/// the loop, which writes the reply in request order.  `query`/`stats`/
/// `metrics` answer inline from immutable snapshots; `drain` (the one
/// genuinely blocking verb) runs on a short-lived helper thread that is
/// joined at stop().
///
/// The loop feeds `service.net.*` counters/gauges into the owning
/// service's metrics registry, so socket-layer health shows up in the
/// same stats document, Prometheus exposition, and SLO plane as the
/// scheduler's own instruments (catalog: docs/observability.md).

namespace sparcle::service {

/// Event-loop listener configuration.
struct EventServerOptions {
  /// Address to bind; the default keeps the daemon loopback-only.
  std::string bind_address{"127.0.0.1"};
  /// Port to bind; 0 picks an ephemeral port (read it back via port()).
  std::uint16_t port{0};
  /// Hard cap on one request, bytes: the payload of a binary frame, or
  /// one NDJSON line.  An oversized request gets a structured error
  /// response (a kWireReject decision-log row + `service.net.wire_rejects`
  /// count), then the connection is closed once the error is flushed —
  /// never a silent drop.
  std::size_t max_frame_bytes{1 << 20};
  /// Connections with no inbound bytes and no pending replies for this
  /// long are closed by the sweep (`service.net.idle_closed`).  Zero
  /// disables the sweep.
  std::chrono::milliseconds idle_timeout{std::chrono::milliseconds(0)};
  /// Hard cap on one connection's unsent reply bytes.  A peer that stops
  /// reading past this point is dropped (`service.net.backpressure_closed`)
  /// instead of growing the buffer without bound.
  std::size_t max_write_buffer_bytes{16u << 20};
};

/// Serves a PlacementService (one global SchedulerService, or a
/// federation::FederatedService of regional shards) over TCP with a
/// single event-loop thread.
/// The server borrows the service — the caller keeps it alive until
/// stop() returns.  start() binds, listens, and spawns the loop; stop()
/// closes every connection, joins the loop and any drain helpers, and
/// waits for in-flight async requests to finish (so no service callback
/// can outlive the server).  stop() therefore needs the service to still
/// be able to complete requests: stop the server while the service runs,
/// or stop the service first (then queued requests bounce as `stopping`,
/// which also completes them).
class EventServer {
 public:
  /// Borrows `service` (kept alive by the caller) and registers the
  /// `service.net.*` instruments in its metrics registry.  Does not open
  /// any socket — call start().
  EventServer(PlacementService& service, EventServerOptions options = {});
  /// Calls stop().
  ~EventServer();

  EventServer(const EventServer&) = delete;             ///< non-copyable
  EventServer& operator=(const EventServer&) = delete;  ///< non-copyable

  /// Binds, listens, and spawns the event loop.  Throws
  /// std::runtime_error (with errno text) if the socket cannot be set up.
  void start();

  /// Closes the listener and every connection, joins the loop thread and
  /// drain helpers, and blocks until outstanding async requests complete.
  /// Idempotent; the destructor calls it.
  void stop();

  /// The bound port (after start(); resolves ephemeral port 0).
  std::uint16_t port() const { return port_; }

 private:
  struct Connection;
  struct Completion;
  class Poller;

  void loop();
  void wake();
  void accept_ready();
  void on_readable(Connection& conn);
  void on_writable(Connection& conn);
  void process_input(Connection& conn);
  void process_json(Connection& conn);
  void process_binary(Connection& conn);
  void dispatch(Connection& conn, std::map<std::string, std::string> request);
  void reserve_reply(Connection& conn, std::uint64_t seq);
  void complete_reply(Connection& conn, std::uint64_t seq,
                      std::string payload);
  std::string render_reply(const Connection& conn, bool error,
                           const std::map<std::string, std::string>& fields);
  void wire_reject(Connection& conn, const std::string& category,
                   const std::string& reason);
  void flush_ready(Connection& conn);
  void try_flush(Connection& conn);
  void update_interest(Connection& conn);
  void close_connection(std::uint64_t id);
  void drain_completions();
  void sweep_idle();
  void post_completion(Completion done);

  PlacementService& service_;
  EventServerOptions options_;

  int listen_fd_{-1};
  int wake_read_fd_{-1};
  int wake_write_fd_{-1};
  std::uint16_t port_{0};
  std::thread loop_thread_;
  std::unique_ptr<Poller> poller_;
  std::map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::uint64_t next_conn_id_{3};  ///< 1 = listener, 2 = wake pipe

  std::mutex comp_mu_;
  std::condition_variable comp_cv_;
  std::vector<Completion> completions_;
  std::size_t inflight_{0};  ///< async requests whose callback has not run
  bool stopping_{false};     ///< guarded by comp_mu_; loop exit flag

  std::mutex drain_mu_;
  std::vector<std::thread> drain_threads_;

  // Cached instrument pointers (stable for the registry's lifetime).
  obs::Counter* accepted_{nullptr};
  obs::Gauge* connections_{nullptr};
  obs::Counter* frames_in_{nullptr};
  obs::Counter* frames_out_{nullptr};
  obs::Counter* bytes_in_{nullptr};
  obs::Counter* bytes_out_{nullptr};
  obs::Counter* short_reads_{nullptr};
  obs::Counter* protocol_errors_{nullptr};
  obs::Counter* wire_rejects_{nullptr};
  obs::Counter* idle_closed_{nullptr};
  obs::Counter* backpressure_closed_{nullptr};
  obs::Counter* codec_json_{nullptr};
  obs::Counter* codec_binary_{nullptr};
};

}  // namespace sparcle::service
