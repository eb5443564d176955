#ifndef TPS_CORE_CANCELLATION_H_
#define TPS_CORE_CANCELLATION_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/status.h"

namespace tps {

/// Cooperative cancellation + deadline token for the online selection
/// pipeline ("Serving" in DESIGN.md).
///
/// A token is armed with an explicit Cancel(), a wall-clock deadline, or
/// (tests only) a trip-after-N-checks countdown; pipeline code polls it at
/// phase and rung boundaries via Check(). Once a Check() observes the
/// token as expired the pipeline returns a DeadlineExceeded Status and the
/// caller never sees a partial result — cancellation is all-or-nothing by
/// construction, because results only escape through the StatusOr return
/// path.
///
/// Thread safety: all members are atomics; one token may be polled
/// concurrently from every pool thread of a fan-out while another thread
/// cancels it. Latching: the first expired observation (deadline passed or
/// countdown hit zero) latches `cancelled_`, so later Check() calls agree
/// even if the clock is never consulted again.
class CancelToken {
 public:
  CancelToken() = default;

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Marks the token cancelled. Idempotent; callable from any thread.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Arms an absolute steady-clock deadline. A non-positive duration from
  /// now means "already expired".
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_relaxed);
    has_deadline_.store(true, std::memory_order_relaxed);
  }

  /// Arms a deadline `ms` milliseconds from now. A deadline 2^62 ns
  /// (about 146 years) away or more, or NaN, arms nothing: it would never
  /// trip, and casting it to the clock's int64 nanoseconds would overflow.
  void SetDeadlineAfterMillis(double ms) {
    constexpr double kNeverNanos = 4611686018427387904.0;  // 2^62
    const double ns = ms * 1e6;
    if (!(ns < kNeverNanos)) return;
    SetDeadline(std::chrono::steady_clock::now() +
                std::chrono::nanoseconds(
                    static_cast<int64_t>(std::max(ns, -kNeverNanos))));
  }

  /// Test hook: the token trips on the (n+1)-th Check() call (n = 0 trips
  /// the first check). Deterministic — lets tests cancel at every
  /// cooperative checkpoint of a pipeline run without racing a clock.
  void CancelAfterChecks(int64_t n) {
    checks_left_.store(n, std::memory_order_relaxed);
    has_countdown_.store(true, std::memory_order_relaxed);
  }

  /// True once the token has been cancelled, its deadline has passed, or
  /// its check countdown has hit zero. Does not consume a countdown tick.
  bool cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (has_deadline_.load(std::memory_order_relaxed) &&
        std::chrono::steady_clock::now().time_since_epoch().count() >=
            deadline_ns_.load(std::memory_order_relaxed)) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Cooperative checkpoint: OK while live, DeadlineExceeded (tagged with
  /// `where`) once expired. Pipeline code calls this at phase entry and at
  /// every rung/fan-out boundary.
  Status Check(const char* where) const;

 private:
  mutable std::atomic<bool> cancelled_{false};
  std::atomic<bool> has_deadline_{false};
  std::atomic<int64_t> deadline_ns_{0};
  std::atomic<bool> has_countdown_{false};
  mutable std::atomic<int64_t> checks_left_{0};
};

/// Null-safe helper: OK when `token` is null, token->Check(where)
/// otherwise. Lets pipeline code thread an optional token without
/// branching at every call site.
inline Status CheckCancel(const CancelToken* token, const char* where) {
  return token == nullptr ? Status::OK() : token->Check(where);
}

}  // namespace tps

#endif  // TPS_CORE_CANCELLATION_H_
