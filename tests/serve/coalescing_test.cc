// Cross-request proxy coalescing: N concurrent identical queries compute
// each proxy exactly once; different keys never coalesce; a cancelled
// leader hands its flight to a live waiter instead of failing it; and the
// always-coalescing service answers exactly as the selector run without a
// cache or flight group (coalescing changes cost, never answers).

#include <atomic>
#include <condition_variable>
#include <future>
#include <latch>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/service.h"
#include "transfer/proxy_flight.h"

namespace tps {
namespace serve {
namespace {

// --- ProxyFlightGroup unit tests (deterministic via latches) ----------------

ProxyCacheKey Key(uint64_t fingerprint, const std::string& model) {
  ProxyCacheKey key;
  key.dataset_fingerprint = fingerprint;
  key.model = model;
  key.scorer = "leep";
  return key;
}

TEST(ProxyFlightGroupTest, SingleCallerComputesDirectly) {
  MetricsRegistry metrics;
  ProxyFlightGroup group(&metrics);
  auto result = group.GetOrCompute(
      /*cache=*/nullptr, Key(1, "m"), /*poll_cancel=*/nullptr,
      []() -> StatusOr<double> { return 3.5; });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 3.5);
  EXPECT_EQ(group.leaders(), 1u);
  EXPECT_EQ(group.waiters(), 0u);
  EXPECT_EQ(group.computes(), 1u);
  EXPECT_EQ(group.handoffs(), 0u);
  EXPECT_EQ(group.InFlight(), 0u);
  EXPECT_EQ(metrics.counter("proxy_flight.computes").value(), 1u);
}

TEST(ProxyFlightGroupTest, ErrorsShareWithWaitersAndDoNotCountAsComputes) {
  MetricsRegistry metrics;
  ProxyFlightGroup group(&metrics);
  auto result = group.GetOrCompute(
      nullptr, Key(1, "m"), nullptr,
      []() -> StatusOr<double> {
        return Status::InvalidArgument("deterministic failure");
      });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(group.computes(), 0u);
  EXPECT_EQ(group.InFlight(), 0u);
}

TEST(ProxyFlightGroupTest, ConcurrentIdenticalKeysComputeExactlyOnce) {
  MetricsRegistry metrics;
  ProxyFlightGroup group(&metrics);
  ProxyScoreCache cache(64, &metrics);
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 20;
  std::atomic<uint64_t> compute_calls{0};

  for (size_t round = 0; round < kRounds; ++round) {
    const ProxyCacheKey key = Key(round, "model");
    std::vector<std::thread> threads;
    std::vector<StatusOr<double>> results(kThreads, StatusOr<double>(0.0));
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        results[t] = group.GetOrCompute(
            &cache, key, /*poll_cancel=*/nullptr,
            [&]() -> StatusOr<double> {
              compute_calls.fetch_add(1);
              return static_cast<double>(round) + 0.25;
            });
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const StatusOr<double>& result : results) {
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(*result, static_cast<double>(round) + 0.25);
    }
  }
  // The exactly-once guarantee: the leader inserts into the cache before
  // its flight retires, so no interleaving of the 8 threads can compute a
  // key twice.
  EXPECT_EQ(compute_calls.load(), kRounds);
  EXPECT_EQ(group.computes(), kRounds);
  EXPECT_EQ(metrics.counter("proxy_flight.computes").value(), kRounds);
  // Conservation: every arrival either hit the cache, led a flight, or
  // waited on one — and made exactly one cache lookup.
  EXPECT_EQ(group.leaders() + group.waiters() + cache.hits(),
            kThreads * kRounds);
  EXPECT_EQ(cache.hits() + cache.misses(), kThreads * kRounds);
  EXPECT_EQ(cache.misses(), group.leaders() + group.waiters());
  EXPECT_EQ(group.InFlight(), 0u);
  EXPECT_EQ(cache.size(), kRounds);
}

TEST(ProxyFlightGroupTest, EveryArrivalHasExactlyOneOutcome) {
  // Latch-driven walk through the arrival windows around one flight:
  //  - while the leader computes: the arrival waits on the flight;
  //  - after the score reached the cache but before the flight retired:
  //    the arrival hits the cache (it must not also lead or wait);
  //  - after the flight retired: the arrival hits the cache.
  MetricsRegistry metrics;
  ProxyFlightGroup group(&metrics);
  ProxyScoreCache cache(8, &metrics);
  const ProxyCacheKey key = Key(21, "m");
  std::atomic<int> compute_calls{0};
  auto must_not_compute = [&]() -> StatusOr<double> {
    compute_calls.fetch_add(1);
    return -1.0;
  };

  std::promise<void> leader_in_compute;
  std::promise<void> waiter_waiting;
  std::shared_future<void> waiter_waiting_future =
      waiter_waiting.get_future().share();
  std::promise<void> score_cached;
  std::promise<void> mid_flight_hit_done;
  std::shared_future<void> mid_flight_hit_done_future =
      mid_flight_hit_done.get_future().share();

  std::thread leader([&] {
    auto result = group.GetOrCompute(
        &cache, key, /*poll_cancel=*/nullptr, [&]() -> StatusOr<double> {
          compute_calls.fetch_add(1);
          leader_in_compute.set_value();
          waiter_waiting_future.wait();
          // Open the window between the score landing in the cache and
          // the flight retiring, and hold it until an arrival used it.
          cache.Insert(key, 5.0);
          score_cached.set_value();
          mid_flight_hit_done_future.wait();
          return 5.0;
        });
    EXPECT_TRUE(result.ok() && *result == 5.0);
  });

  leader_in_compute.get_future().wait();
  // The waiter's own cancellation poll runs only once it is waiting on the
  // flight, so it doubles as the "joined" latch.
  bool signalled = false;
  std::thread waiter([&] {
    auto result = group.GetOrCompute(
        &cache, key,
        /*poll_cancel=*/
        [&]() {
          if (!signalled) {
            signalled = true;
            waiter_waiting.set_value();
          }
          return Status::OK();
        },
        must_not_compute);
    EXPECT_TRUE(result.ok() && *result == 5.0);
  });

  score_cached.get_future().wait();
  auto mid_flight = group.GetOrCompute(&cache, key, nullptr, must_not_compute);
  EXPECT_TRUE(mid_flight.ok() && *mid_flight == 5.0);
  EXPECT_EQ(group.InFlight(), 1u);  // The flight had not retired yet.
  mid_flight_hit_done.set_value();
  leader.join();
  waiter.join();

  auto after = group.GetOrCompute(&cache, key, nullptr, must_not_compute);
  EXPECT_TRUE(after.ok() && *after == 5.0);

  // Four arrivals, four outcomes: one leader, one waiter, two hits.
  EXPECT_EQ(compute_calls.load(), 1);
  EXPECT_EQ(group.computes(), 1u);
  EXPECT_EQ(group.leaders(), 1u);
  EXPECT_EQ(group.waiters(), 1u);
  EXPECT_EQ(group.handoffs(), 0u);
  EXPECT_EQ(cache.hits(), 2u);
  // One lookup per arrival: the leader's and the waiter's misses only.
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(metrics.counter("proxy_cache.misses").value(), 2u);
  EXPECT_EQ(group.InFlight(), 0u);
}

TEST(ProxyFlightGroupTest, DistinctKeysNeverCoalesce) {
  MetricsRegistry metrics;
  ProxyFlightGroup group(&metrics);
  // Serial requests over three distinct keys: every call must lead its own
  // flight and compute; nothing waits.
  for (uint64_t fp : {1u, 2u, 3u}) {
    auto result = group.GetOrCompute(
        nullptr, Key(fp, "m"), nullptr,
        [fp]() -> StatusOr<double> { return static_cast<double>(fp); });
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, static_cast<double>(fp));
  }
  EXPECT_EQ(group.leaders(), 3u);
  EXPECT_EQ(group.computes(), 3u);
  EXPECT_EQ(group.waiters(), 0u);
  EXPECT_EQ(group.handoffs(), 0u);
}

TEST(ProxyFlightGroupTest, CancelledLeaderHandsOffToLiveWaiter) {
  MetricsRegistry metrics;
  ProxyFlightGroup group(&metrics);
  const ProxyCacheKey key = Key(9, "m");

  std::promise<void> leader_in_compute;
  std::promise<void> waiter_joined;
  std::shared_future<void> waiter_joined_future =
      waiter_joined.get_future().share();

  // Leader: blocks inside compute until the waiter has joined, then
  // reports its own cancellation. Only this caller may see the error.
  std::thread leader([&] {
    auto result = group.GetOrCompute(
        nullptr, key, nullptr,
        [&]() -> StatusOr<double> {
          leader_in_compute.set_value();
          waiter_joined_future.wait();
          return Status::DeadlineExceeded("leader request expired");
        });
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsDeadlineExceeded());
  });

  leader_in_compute.get_future().wait();
  // Waiter: joins while the leader is mid-compute; after promotion it runs
  // its OWN compute closure and must succeed. Its cancellation poll runs
  // only inside the flight's wait loop, so the first poll opens the latch
  // once the waiter has joined.
  std::latch waiting(1);
  std::atomic<bool> polled{false};
  std::thread waiter([&] {
    auto result = group.GetOrCompute(
        nullptr, key,
        [&] {
          if (!polled.exchange(true)) waiting.count_down();
          return Status::OK();
        },
        [&]() -> StatusOr<double> { return 42.0; });
    EXPECT_TRUE(result.ok());
    if (result.ok()) {
      EXPECT_EQ(*result, 42.0);
    }
  });
  waiting.wait();
  EXPECT_EQ(group.waiters(), 1u);
  waiter_joined.set_value();
  leader.join();
  waiter.join();

  EXPECT_EQ(group.handoffs(), 1u);
  EXPECT_EQ(group.computes(), 1u);  // Only the promoted waiter's compute.
  EXPECT_EQ(group.leaders(), 2u);   // Original + promoted.
  EXPECT_EQ(metrics.counter("proxy_flight.handoffs").value(), 1u);
  EXPECT_EQ(group.InFlight(), 0u);
}

TEST(ProxyFlightGroupTest, WaiterWithExpiredDeadlineLeavesFlightIntact) {
  MetricsRegistry metrics;
  ProxyFlightGroup group(&metrics);
  const ProxyCacheKey key = Key(11, "m");

  std::promise<void> leader_in_compute;
  std::promise<void> waiter_left;
  std::shared_future<void> waiter_left_future =
      waiter_left.get_future().share();

  std::thread leader([&] {
    auto result = group.GetOrCompute(
        nullptr, key, nullptr,
        [&]() -> StatusOr<double> {
          leader_in_compute.set_value();
          waiter_left_future.wait();
          return 7.0;
        });
    EXPECT_TRUE(result.ok());
    if (result.ok()) {
      EXPECT_EQ(*result, 7.0);
    }
  });

  leader_in_compute.get_future().wait();
  // Waiter whose own deadline is already expired: it must leave without
  // disturbing the leader's flight.
  auto result = group.GetOrCompute(
      nullptr, key,
      /*poll_cancel=*/
      []() { return Status::DeadlineExceeded("waiter expired"); },
      []() -> StatusOr<double> { return -1.0; });
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded());
  waiter_left.set_value();
  leader.join();

  EXPECT_EQ(group.handoffs(), 0u);
  EXPECT_EQ(group.computes(), 1u);
  EXPECT_EQ(group.InFlight(), 0u);
}

// --- Service-level coalescing ----------------------------------------------

class CoalescingServiceTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    artifacts_ = new ServiceArtifacts(
        *ServiceArtifacts::Build(TaskDomain::kNLP));
  }

  static ServiceArtifacts Artifacts() { return *artifacts_; }

  static SelectionRequest Request(const std::string& target) {
    SelectionRequest request;
    request.target = target;
    return request;
  }

  static ServiceArtifacts* artifacts_;
};

ServiceArtifacts* CoalescingServiceTest::artifacts_ = nullptr;

TEST_F(CoalescingServiceTest, StampedeComputesEachProxyExactlyOnce) {
  constexpr int kWorkers = 4;
  MetricsRegistry metrics;
  ServiceOptions options;
  options.worker_threads = kWorkers;
  options.metrics = &metrics;

  // Barrier: no worker starts its request until all four hold one, so the
  // four identical queries are genuinely concurrent on a cold cache.
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  options.pre_handle_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    ++arrived;
    cv.notify_all();
    cv.wait(lock, [&] { return arrived >= kWorkers; });
  };

  auto service_or = SelectionService::Create(Artifacts(), options);
  ASSERT_TRUE(service_or.ok());
  auto& service = *service_or;

  std::vector<std::future<SelectionResponse>> futures;
  for (int i = 0; i < kWorkers; ++i) {
    futures.push_back(service->Submit(Request("mnli")));
  }
  std::vector<SelectionResponse> responses;
  for (auto& future : futures) responses.push_back(future.get());

  for (const SelectionResponse& response : responses) {
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    // Coalesced answers are the leader's answer — identical bits.
    EXPECT_EQ(response.selected_model, responses[0].selected_model);
    EXPECT_EQ(response.selected_accuracy, responses[0].selected_accuracy);
    EXPECT_EQ(response.total_epochs, responses[0].total_epochs);
  }

  // Exactly-once: each unique (target, model, scorer) key was computed one
  // time no matter how the four requests interleaved; the cache holds one
  // entry per key afterwards.
  ASSERT_NE(service->flight_group(), nullptr);
  EXPECT_GT(service->flight_group()->computes(), 0u);
  EXPECT_EQ(service->flight_group()->computes(), service->cache()->size());
  EXPECT_EQ(metrics.counter("proxy_flight.computes").value(),
            service->flight_group()->computes());
  EXPECT_EQ(service->flight_group()->InFlight(), 0u);
}

TEST_F(CoalescingServiceTest, MixedKeyQueriesDoNotCoalesce) {
  MetricsRegistry metrics;
  ServiceOptions options;
  options.worker_threads = 0;  // Serial: Handle on this thread.
  options.metrics = &metrics;
  auto service_or = SelectionService::Create(Artifacts(), options);
  ASSERT_TRUE(service_or.ok());
  auto& service = *service_or;

  const SelectionResponse first = service->Handle(Request("mnli"));
  const SelectionResponse second = service->Handle(Request("sst2"));
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();

  ASSERT_NE(service->flight_group(), nullptr);
  // Serial distinct-target queries: every flight had one member; nothing
  // waited, nothing was handed off, and each key computed once.
  EXPECT_EQ(service->flight_group()->waiters(), 0u);
  EXPECT_EQ(service->flight_group()->handoffs(), 0u);
  EXPECT_EQ(service->flight_group()->computes(),
            service->flight_group()->leaders());
  EXPECT_EQ(service->flight_group()->computes(), service->cache()->size());
}

TEST_F(CoalescingServiceTest, CoalescingOnEqualsOffBitForBit) {
  // The service always coalesces. Its replies must equal the selector run
  // on the same snapshot with no cache and no flight group, field by
  // field.
  ServiceOptions options;
  options.worker_threads = 0;
  auto service_or = SelectionService::Create(Artifacts(), options);
  ASSERT_TRUE(service_or.ok());
  auto& service = *service_or;
  ASSERT_NE(service->flight_group(), nullptr);
  const std::shared_ptr<const ArtifactSnapshot> snapshot =
      service->snapshot();

  for (const char* target : {"mnli", "sst2", "mnli"}) {
    const SelectionResponse a = service->Handle(Request(target));
    ASSERT_TRUE(a.status.ok()) << a.status.ToString();
    const Dataset* dataset = *snapshot->artifacts.registry.Find(target);
    auto b = snapshot->selector.Select(
        *dataset, TwoPhaseOptions(),
        Hyperparams::DefaultsFor(dataset->spec().domain));
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    const ModelZoo& zoo = snapshot->artifacts.zoo;
    EXPECT_EQ(a.selected_model, zoo.model(b->selection.selected_model).name());
    EXPECT_EQ(a.selected_accuracy, b->selection.selected_accuracy);
    EXPECT_EQ(a.training_epochs, b->budget.training_epochs());
    EXPECT_EQ(a.inference_epochs, b->budget.inference_epochs());
    EXPECT_EQ(a.total_epochs, b->budget.total_epochs());
    EXPECT_EQ(a.survivors_per_stage, b->selection.survivors_per_stage);
  }
  EXPECT_GT(service->flight_group()->computes(), 0u);
}

}  // namespace
}  // namespace serve
}  // namespace tps
