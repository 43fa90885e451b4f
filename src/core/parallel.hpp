#pragma once

/// \file parallel.hpp
/// The thread-count resolver left over from the per-round worker pool that
/// once fanned SPARCLE's best-host candidate scan out across threads.  The
/// scan is now serial (it reads each widest-width tree many times, and
/// threads cost more than they saved), and nothing in the library consumes
/// the resolved count.  It stays only for source compatibility.

namespace sparcle {

/// Namespace for resolve_threads (the pool itself is gone).
struct WorkerPool {
  /// Maps a user-facing thread-count knob to a concrete count.
  /// `requested > 0` wins outright.  Otherwise (auto) the `SPARCLE_THREADS`
  /// environment variable is consulted (a positive integer overrides
  /// everything else), and failing that the hardware concurrency is used,
  /// clamped to `cap` when `cap` is non-zero (`cap == 0` means "no cap
  /// beyond the hardware").  Has no effect on assignment.
  static unsigned resolve_threads(int requested, unsigned cap = 0);
};

}  // namespace sparcle
