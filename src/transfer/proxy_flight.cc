#include "transfer/proxy_flight.h"

#include <chrono>
#include <optional>

namespace tps {

namespace {
// Waiters poll their own cancellation at this cadence while the leader
// computes; 1ms keeps waiter deadline latency tight without burning the
// core the leader needs.
constexpr std::chrono::milliseconds kWaiterPoll{1};
}  // namespace

ProxyFlightGroup::ProxyFlightGroup(MetricsRegistry* metrics)
    : metrics_(metrics != nullptr ? metrics : MetricsRegistry::Default()),
      leader_counter_(metrics_->counter("proxy_flight.leaders")),
      waiter_counter_(metrics_->counter("proxy_flight.waiters")),
      compute_counter_(metrics_->counter("proxy_flight.computes")),
      handoff_counter_(metrics_->counter("proxy_flight.handoffs")) {}

size_t ProxyFlightGroup::InFlight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flights_.size();
}

void ProxyFlightGroup::Depart(const ProxyCacheKey& key,
                              const std::shared_ptr<Flight>& flight) {
  flight->members -= 1;
  if (flight->members == 0 && !flight->done) {
    // Last member left an unfinished flight (everyone cancelled); retire
    // it so the next arrival starts fresh instead of waiting forever.
    auto it = flights_.find(key);
    if (it != flights_.end() && it->second == flight) flights_.erase(it);
  }
}

StatusOr<double> ProxyFlightGroup::GetOrCompute(
    ProxyScoreCache* cache, const ProxyCacheKey& key,
    const std::function<Status()>& poll_cancel,
    const std::function<StatusOr<double>()>& compute) {
  std::shared_ptr<Flight> flight;
  bool is_leader = false;
  {
    // The cache lookup and the flight join are one step under mu_, so the
    // arrival gets exactly one outcome. A leader inserts into the cache
    // before it retires its flight under mu_, so an arrival that finds no
    // flight finds the score: no arrival can lead a second compute.
    std::lock_guard<std::mutex> lock(mu_);
    if (cache != nullptr) {
      if (std::optional<double> cached = cache->Lookup(key);
          cached.has_value()) {
        return *cached;
      }
    }
    auto it = flights_.find(key);
    if (it == flights_.end()) {
      flight = std::make_shared<Flight>();
      flight->leader_active = true;
      flight->members = 1;
      flights_.emplace(key, flight);
      is_leader = true;
      leaders_.fetch_add(1, std::memory_order_relaxed);
      leader_counter_.Increment();
    } else {
      flight = it->second;
      flight->members += 1;
      waiters_.fetch_add(1, std::memory_order_relaxed);
      waiter_counter_.Increment();
    }
  }

  while (true) {
    if (is_leader) {
      // Compute runs with no lock held; the flight map stays responsive
      // for other keys while this one works.
      StatusOr<double> result = compute();
      if (result.ok()) {
        computes_.fetch_add(1, std::memory_order_relaxed);
        compute_counter_.Increment();
        if (cache != nullptr) cache->Insert(key, *result);
      }

      std::lock_guard<std::mutex> lock(mu_);
      const bool cancelled =
          !result.ok() && result.status().IsDeadlineExceeded();
      if (cancelled && flight->members > 1) {
        // This caller's own deadline expired but live waiters remain:
        // abdicate instead of failing the flight. One waiter promotes
        // itself to leader and runs ITS OWN compute closure.
        flight->leader_active = false;
        flight->members -= 1;
        flight->cv.notify_all();
        return result;
      }
      // Publish: success, genuine (deterministic) error, or a cancelled
      // leader with nobody left to hand off to. Retire the flight from
      // the map so post-flight arrivals go to the cache / a fresh flight;
      // members still holding the shared_ptr read `result` off it.
      flight->done = true;
      flight->result = result;
      auto it = flights_.find(key);
      if (it != flights_.end() && it->second == flight) flights_.erase(it);
      flight->members -= 1;
      flight->cv.notify_all();
      return result;
    }

    // Waiter path: wait for the flight to finish or the leader to
    // abdicate, polling our own cancellation in between.
    std::unique_lock<std::mutex> lock(mu_);
    while (!flight->done && flight->leader_active) {
      flight->cv.wait_for(lock, kWaiterPoll);
      if (flight->done || !flight->leader_active) break;
      if (poll_cancel) {
        Status status = poll_cancel();
        if (!status.ok()) {
          Depart(key, flight);
          return status;
        }
      }
    }
    if (flight->done) {
      flight->members -= 1;
      return flight->result;
    }
    // Leader abdicated and we won the promotion race (the first waiter
    // through the lock flips leader_active back on; the rest keep
    // waiting on the same flight).
    flight->leader_active = true;
    is_leader = true;
    handoffs_.fetch_add(1, std::memory_order_relaxed);
    handoff_counter_.Increment();
    leaders_.fetch_add(1, std::memory_order_relaxed);
    leader_counter_.Increment();
  }
}

}  // namespace tps
