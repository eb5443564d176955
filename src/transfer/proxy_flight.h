#ifndef TPS_TRANSFER_PROXY_FLIGHT_H_
#define TPS_TRANSFER_PROXY_FLIGHT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "transfer/score_cache.h"
#include "util/metrics.h"
#include "util/statusor.h"

namespace tps {

/// Cross-request proxy coalescing ("single-flight"): identical in-flight
/// (dataset, model, scorer) computations — keyed by the same ProxyCacheKey
/// the LRU cache uses — collapse so ONE pass over the target's predictions
/// answers every queued query. The first arrival becomes the flight's
/// leader and computes; later arrivals wait on the flight and share the
/// leader's result. First step of the ROADMAP's fleet-grade coalescing.
///
/// Inertness: proxy scores are pure functions of the key, so a waiter
/// receiving the leader's double is bit-identical to computing it — the
/// coalescing suite (tests/serve/coalescing_test.cc) pins responses with
/// == and the exactly-once compute count via the metrics counters.
///
/// Cancellation-safe waiter handoff: a leader whose own request is
/// cancelled (compute returns DeadlineExceeded) ABDICATES instead of
/// failing the flight — one live waiter is promoted to leader and runs its
/// own compute closure; only the cancelled caller sees DeadlineExceeded.
/// Genuine (deterministic) compute errors are shared with all waiters, the
/// same answer every member would have computed alone. Waiters poll their
/// own cancellation between waits, so a waiter with an expired deadline
/// leaves the flight without disturbing it.
///
/// Accounting: every arrival has exactly one outcome — a cache hit, the
/// leader of a new flight, or a waiter on an existing one — because the
/// cache lookup and the flight join happen in one critical section. So
/// cache hits + (leaders - handoffs) + waiters == arrivals, every arrival
/// is one cache lookup, and with no concurrent arrivals cache misses ==
/// computes.
///
/// Observability (MetricsRegistry + local atomics, like ProxyScoreCache):
///   proxy_flight.leaders   — flights led (first arrival or promotion)
///   proxy_flight.waiters   — arrivals that joined an existing flight
///   proxy_flight.computes  — compute closures that ran to success
///   proxy_flight.handoffs  — waiter promotions after leader abdication
class ProxyFlightGroup {
 public:
  explicit ProxyFlightGroup(MetricsRegistry* metrics = nullptr);

  ProxyFlightGroup(const ProxyFlightGroup&) = delete;
  ProxyFlightGroup& operator=(const ProxyFlightGroup&) = delete;

  /// The serving seam: one cache lookup (when `cache` is non-null), then
  /// coalesced compute. The leader inserts a successful score into the
  /// cache BEFORE the flight is retired, so any request arriving after the
  /// flight hits the cache — compute runs exactly once per key, provided
  /// every insert for the key goes through this group. Each caller passes
  /// its own closures; whichever member ends up leading runs its own
  /// `compute`, without any flight lock held. `poll_cancel` (may be null)
  /// is this caller's own cancellation check, polled while waiting.
  StatusOr<double> GetOrCompute(
      ProxyScoreCache* cache, const ProxyCacheKey& key,
      const std::function<Status()>& poll_cancel,
      const std::function<StatusOr<double>()>& compute);

  uint64_t leaders() const { return leaders_.load(std::memory_order_relaxed); }
  uint64_t waiters() const { return waiters_.load(std::memory_order_relaxed); }
  uint64_t computes() const {
    return computes_.load(std::memory_order_relaxed);
  }
  uint64_t handoffs() const {
    return handoffs_.load(std::memory_order_relaxed);
  }

  /// In-flight key count (0 when idle; for tests and stats).
  size_t InFlight() const;

 private:
  struct Flight {
    std::condition_variable cv;
    bool done = false;
    bool leader_active = false;
    size_t members = 0;
    StatusOr<double> result{0.0};
  };

  /// Drops one membership; erases the flight when the last member leaves
  /// an unfinished flight. Caller holds mu_.
  void Depart(const ProxyCacheKey& key,
              const std::shared_ptr<Flight>& flight);

  MetricsRegistry* const metrics_;

  mutable std::mutex mu_;
  std::unordered_map<ProxyCacheKey, std::shared_ptr<Flight>,
                     ProxyCacheKeyHash>
      flights_;

  std::atomic<uint64_t> leaders_{0};
  std::atomic<uint64_t> waiters_{0};
  std::atomic<uint64_t> computes_{0};
  std::atomic<uint64_t> handoffs_{0};

  Counter& leader_counter_;
  Counter& waiter_counter_;
  Counter& compute_counter_;
  Counter& handoff_counter_;
};

}  // namespace tps

#endif  // TPS_TRANSFER_PROXY_FLIGHT_H_
