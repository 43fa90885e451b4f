#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

/// \file decision_log.hpp
/// A structured record of every admission-control decision the scheduler
/// takes: admissions, rejections, and individual path additions, each with
/// a human-readable reason ("QoE unmet", "no feasible task-assignment
/// path", ...).  The log is the audit trail that lets an operator answer
/// "why was this application rejected?" without re-running the scheduler.
/// Schema is documented in docs/observability.md.
///
/// Rows recorded while a request trace id is active on the calling thread
/// (obs::ScopedTrace) carry that id in the trailing `trace` column, tying
/// the decision back to the service request that caused it.  Storage is
/// bounded by set_capacity(): past the cap the *oldest* row is dropped (a
/// long-running daemon keeps the recent audit window); seq stays globally
/// monotone across drops so gaps are detectable.

namespace sparcle::obs {

enum class DecisionKind : std::uint8_t {
  kAdmit,    ///< application admitted
  kReject,   ///< application rejected
  kPathAdd,  ///< one task-assignment path provisioned for an application
  kRepair,   ///< one application touched by a failure-repair pass
  /// A request bounced at the placement-service queue *before* reaching the
  /// scheduler: the bounded queue was full (reason `queue_full ...`) or the
  /// request's deadline passed while it waited (reason
  /// `deadline_exceeded ...`).  docs/service.md covers the backpressure
  /// semantics.
  kQueueReject,
  /// A request rejected at the wire layer before it could be parsed into a
  /// service request: oversized NDJSON line or binary frame, bad magic /
  /// version byte, or a malformed frame body.  The peer receives a
  /// structured error response (not a silent connection drop); the reason
  /// column records the wire-level cause.  docs/wire.md covers the framing
  /// rules these rejects enforce.
  kWireReject,
  /// A federation routing decision on one arrival (docs/federation.md):
  /// routed to its home shard, admitted cross-shard in one reserve
  /// round, aborted at reserve, or rejected by the γ pre-gate.  The
  /// reason column records the route taken and the shards touched.
  kFederate,
};

/// Symbolic name of a decision kind (`admit`, `reject`, `path_add`,
/// `repair`, `queue_reject`, `wire_reject`, `federate`) as written into
/// the CSV `kind` column.
const char* to_string(DecisionKind kind);

struct Decision {
  std::uint64_t seq{0};  ///< global decision order (0-based, drop-proof)
  DecisionKind kind{DecisionKind::kAdmit};
  std::string app;       ///< application name
  std::string qoe;       ///< "BE" or "GR"
  std::string reason;    ///< never empty
  double rate{0.0};          ///< allocated / standalone rate
  double availability{0.0};  ///< achieved availability at decision time
  std::size_t paths{0};      ///< path count at decision time
  std::uint64_t trace{0};    ///< originating request trace id (0 = none)
};

/// Thread-safe append-only decision record with CSV export.
class DecisionLog {
 public:
  static constexpr const char* kCsvHeader =
      "seq,kind,app,qoe,reason,rate,availability,paths,trace";

  /// Default row capacity before oldest-drop.
  static constexpr std::size_t kDefaultCapacity = 1 << 20;

  /// Appends one row, stamping it with the calling thread's active trace
  /// id (obs::current_trace(); 0 when no request scope is open).
  void record(DecisionKind kind, std::string app, std::string qoe,
              std::string reason, double rate, double availability,
              std::size_t paths);

  /// Caps stored rows; excess recordings drop the oldest row.  A cap of 0
  /// drops everything.  Shrinks eagerly.  Drops are counted locally
  /// (dropped()) and on the global `decision_log.dropped` counter when a
  /// metrics registry is installed.
  void set_capacity(std::size_t cap);
  std::size_t capacity() const;
  /// Rows discarded so far by the capacity cap.
  std::uint64_t dropped() const;

  std::vector<Decision> snapshot() const;
  std::size_t size() const;

  /// Header plus one row per decision; fields containing commas or quotes
  /// are double-quote escaped per RFC 4180.
  void write_csv(std::ostream& out) const;
  std::string to_csv() const;

 private:
  mutable std::mutex mu_;
  std::deque<Decision> rows_;
  std::uint64_t seq_{0};
  std::size_t capacity_{kDefaultCapacity};
  std::uint64_t dropped_{0};
};

}  // namespace sparcle::obs
