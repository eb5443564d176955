// SelectionService behavior: admission control with explicit backpressure,
// deadlines armed at admission, the shared proxy-score cache, and
// concurrent-equals-serial results.

#include "serve/service.h"
#include "bench/lib/dispatch.h"

#include <atomic>
#include <chrono>
#include <latch>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace tps {
namespace serve {
namespace {

/// Holds every admitted request in ServiceOptions::pre_handle_hook until
/// Release(); WaitEntered() returns once the first one is inside. Latches
/// only, so a hook test never depends on how long anything takes.
class HookGate {
 public:
  std::function<void()> Hook() {
    return [this] {
      if (!first_entered_.exchange(true)) entered_.count_down();
      released_.wait();
    };
  }
  void WaitEntered() { entered_.wait(); }
  void Release() { released_.count_down(); }

 private:
  std::atomic<bool> first_entered_{false};
  std::latch entered_{1};
  std::latch released_{1};
};

class SelectionServiceTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    artifacts_ = new ServiceArtifacts(
        *ServiceArtifacts::Build(TaskDomain::kNLP));
  }

  /// Fresh copy of the shared artifacts (Create takes ownership).
  static ServiceArtifacts Artifacts() { return *artifacts_; }

  static std::unique_ptr<SelectionService> MakeService(
      const ServiceOptions& options) {
    auto service_or = SelectionService::Create(Artifacts(), options);
    EXPECT_TRUE(service_or.ok()) << service_or.status().ToString();
    return std::move(*service_or);
  }

  static SelectionRequest Request(const std::string& target) {
    SelectionRequest request;
    request.target = target;
    return request;
  }

  static ServiceArtifacts* artifacts_;
};

ServiceArtifacts* SelectionServiceTest::artifacts_ = nullptr;

TEST_F(SelectionServiceTest, CreateValidatesOptions) {
  ServiceOptions options;
  options.worker_threads = -1;
  EXPECT_FALSE(SelectionService::Create(Artifacts(), options).ok());
  options = ServiceOptions();
  options.max_queue = 0;
  EXPECT_FALSE(SelectionService::Create(Artifacts(), options).ok());
  options = ServiceOptions();
  options.pipeline_threads = 0;
  EXPECT_FALSE(SelectionService::Create(Artifacts(), options).ok());
  options = ServiceOptions();
  options.default_deadline_ms = -1.0;
  EXPECT_FALSE(SelectionService::Create(Artifacts(), options).ok());
}

TEST_F(SelectionServiceTest, HandleMatchesDirectSelector) {
  // The service is a serving shell, not a different algorithm: its answer
  // must match a hand-built selector on the same artifacts exactly.
  const ServiceArtifacts artifacts = Artifacts();
  FineTuneSimulator simulator;
  TwoPhaseSelector selector(&artifacts.zoo, &artifacts.matrix,
                            &artifacts.clustering, &simulator);
  const Dataset& target = **artifacts.registry.Find("mnli");
  const TwoPhaseReport direct = *selector.Select(target, TwoPhaseOptions());

  MetricsRegistry metrics;
  ServiceOptions options;
  options.worker_threads = 0;
  options.metrics = &metrics;
  auto service = MakeService(options);
  const SelectionResponse response = service->Handle(Request("mnli"));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.selected_model,
            artifacts.zoo.model(direct.selection.selected_model).name());
  EXPECT_EQ(response.selected_accuracy, direct.selection.selected_accuracy);
  EXPECT_EQ(response.survivors_per_stage,
            direct.selection.survivors_per_stage);
  EXPECT_EQ(response.total_epochs, direct.budget.total_epochs());
  EXPECT_GT(response.wall_ms, 0.0);
}

TEST_F(SelectionServiceTest, HugeDeadlineMeansNoDeadline) {
  // A wire "deadline_ms" of 1e13 or more used to overflow the token's
  // nanosecond cast and expire at the first checkpoint.
  ServiceOptions options;
  options.worker_threads = 0;
  auto service = MakeService(options);
  for (const double ms : {1e13, 1e300}) {
    SelectionRequest request = Request("mnli");
    request.deadline_ms = ms;
    const SelectionResponse response = service->Handle(request);
    EXPECT_TRUE(response.status.ok()) << ms << ": "
                                      << response.status.ToString();
  }
}

TEST_F(SelectionServiceTest, UnknownTargetAndWrongDomainFailCleanly) {
  MetricsRegistry metrics;
  ServiceOptions options;
  options.worker_threads = 0;
  options.metrics = &metrics;
  auto service = MakeService(options);

  const SelectionResponse unknown = service->Handle(Request("no-such"));
  EXPECT_TRUE(unknown.status.IsNotFound());
  EXPECT_TRUE(unknown.selected_model.empty());

  // "beans" is a CV dataset; this service holds NLP artifacts.
  const SelectionResponse mismatch = service->Handle(Request("beans"));
  EXPECT_TRUE(mismatch.status.IsInvalidArgument());
  EXPECT_TRUE(mismatch.selected_model.empty());
  EXPECT_EQ(service->Stats().errors, 2u);
}

TEST_F(SelectionServiceTest, FailedRequestCarriesNoPartialResult) {
  MetricsRegistry metrics;
  ServiceOptions options;
  options.worker_threads = 0;
  options.metrics = &metrics;
  auto service = MakeService(options);
  SelectionRequest request = Request("mnli");
  request.want_trace = true;
  request.deadline_ms = 0.0005;  // Expires almost immediately.
  const SelectionResponse response = service->Handle(request);
  ASSERT_TRUE(response.status.IsDeadlineExceeded())
      << response.status.ToString();
  // Everything except target + status is default-initialized — the
  // half-filled trace from the aborted run must not leak out.
  EXPECT_TRUE(response.selected_model.empty());
  EXPECT_EQ(response.selected_accuracy, 0.0);
  EXPECT_TRUE(response.survivors_per_stage.empty());
  EXPECT_FALSE(response.has_trace);
  EXPECT_EQ(service->Stats().deadline_exceeded, 1u);
}

TEST_F(SelectionServiceTest, SubmitDrainsThroughWorkers) {
  MetricsRegistry metrics;
  ServiceOptions options;
  options.worker_threads = 2;
  options.metrics = &metrics;
  auto service = MakeService(options);
  std::vector<std::future<SelectionResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(Submit(*service, Request(i % 2 == 0 ? "mnli" : "boolq")));
  }
  for (auto& future : futures) {
    const SelectionResponse response = future.get();
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_FALSE(response.selected_model.empty());
  }
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST_F(SelectionServiceTest, FullQueueRejectsImmediately) {
  MetricsRegistry metrics;
  HookGate gate;
  ServiceOptions options;
  options.worker_threads = 1;
  options.max_queue = 2;
  options.metrics = &metrics;
  options.pre_handle_hook = gate.Hook();
  auto service = MakeService(options);

  // First request: the worker dequeues it and parks in the hook.
  auto f1 = Submit(*service, Request("mnli"));
  gate.WaitEntered();
  // Queue is now empty; fill it to capacity.
  auto f2 = Submit(*service, Request("mnli"));
  auto f3 = Submit(*service, Request("boolq"));
  EXPECT_EQ(service->queue_depth(), 2u);

  // One over capacity: rejected NOW, without blocking, with Unavailable.
  const auto reject_start = std::chrono::steady_clock::now();
  auto f4 = Submit(*service, Request("mnli"));
  const SelectionResponse rejected = f4.get();
  const double reject_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - reject_start)
          .count();
  EXPECT_TRUE(rejected.status.IsUnavailable())
      << rejected.status.ToString();
  EXPECT_NE(rejected.status.message().find("queue full"),
            std::string::npos);
  EXPECT_LT(reject_ms, 1000.0);  // Rejection never waits for the pipeline.

  gate.Release();
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());
  EXPECT_TRUE(f3.get().status.ok());

  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(metrics.counter("serve.rejected").value(), 1u);
  EXPECT_EQ(metrics.gauge("serve.queue_depth").max_value(), 2.0);
}

TEST_F(SelectionServiceTest, DeadlineBurnsWhileQueued) {
  // The deadline is armed at admission: a request that waits out its
  // deadline in the queue is answered DeadlineExceeded without ever
  // touching the pipeline.
  MetricsRegistry metrics;
  HookGate gate;
  ServiceOptions options;
  options.worker_threads = 1;
  options.metrics = &metrics;
  options.pre_handle_hook = gate.Hook();
  auto service = MakeService(options);

  auto blocker = Submit(*service, Request("mnli"));  // No deadline.
  gate.WaitEntered();
  // A 1 ns deadline: admitted (the queue has room), and long expired by
  // the time the held slot frees up, without the test waiting on a clock.
  SelectionRequest doomed = Request("boolq");
  doomed.deadline_ms = 1e-6;
  auto f = Submit(*service, std::move(doomed));
  EXPECT_EQ(service->queue_depth(), 1u);
  gate.Release();

  EXPECT_TRUE(blocker.get().status.ok());
  const SelectionResponse response = f.get();
  EXPECT_TRUE(response.status.IsDeadlineExceeded())
      << response.status.ToString();
  // It expired before the pipeline started.
  EXPECT_NE(response.status.message().find("admission"), std::string::npos)
      << response.status.ToString();
  EXPECT_TRUE(response.selected_model.empty());
  EXPECT_EQ(service->Stats().deadline_exceeded, 1u);
}

TEST_F(SelectionServiceTest, ShutdownAnswersAbandonedRequests) {
  MetricsRegistry metrics;
  HookGate gate;
  ServiceOptions options;
  options.worker_threads = 1;
  options.metrics = &metrics;
  options.pre_handle_hook = gate.Hook();
  auto service = MakeService(options);

  auto f1 = Submit(*service, Request("mnli"));
  gate.WaitEntered();
  auto f2 = Submit(*service, Request("boolq"));
  auto f3 = Submit(*service, Request("mnli"));
  EXPECT_EQ(service->queue_depth(), 2u);

  // Destroy the service from another thread: the destructor swaps the
  // queue out (f2/f3 become abandoned) and then blocks joining the worker
  // we are holding. Its members live until that join returns, so the
  // emptied queue is observable; release the worker once it is.
  SelectionService* const dying = service.get();
  std::thread destroyer([&] { service.reset(); });
  while (dying->queue_depth() != 0) std::this_thread::yield();
  gate.Release();
  destroyer.join();

  EXPECT_TRUE(f1.get().status.ok());
  const SelectionResponse r2 = f2.get();
  const SelectionResponse r3 = f3.get();
  EXPECT_TRUE(r2.status.IsUnavailable()) << r2.status.ToString();
  EXPECT_NE(r2.status.message().find("shutting down"), std::string::npos);
  EXPECT_TRUE(r3.status.IsUnavailable());
}

TEST_F(SelectionServiceTest, ConcurrentHandleMatchesSerialBaseline) {
  MetricsRegistry metrics;
  ServiceOptions options;
  options.worker_threads = 0;
  options.metrics = &metrics;
  auto service = MakeService(options);

  const SelectionResponse mnli = service->Handle(Request("mnli"));
  const SelectionResponse boolq = service->Handle(Request("boolq"));
  ASSERT_TRUE(mnli.status.ok());
  ASSERT_TRUE(boolq.status.ok());

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const SelectionResponse& want = t % 2 == 0 ? mnli : boolq;
      for (int i = 0; i < 3; ++i) {
        const SelectionResponse got =
            service->Handle(Request(t % 2 == 0 ? "mnli" : "boolq"));
        if (!got.status.ok() || got.selected_model != want.selected_model ||
            got.selected_accuracy != want.selected_accuracy ||
            got.survivors_per_stage != want.survivors_per_stage) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(SelectionServiceTest, CacheWarmsAcrossRequests) {
  MetricsRegistry metrics;
  ServiceOptions options;
  options.worker_threads = 0;
  options.metrics = &metrics;
  auto service = MakeService(options);

  const SelectionResponse cold = service->Handle(Request("mnli"));
  ASSERT_TRUE(cold.status.ok());
  EXPECT_GT(cold.cache_misses, 0u);
  EXPECT_EQ(cold.cache_hits, 0u);

  const SelectionResponse warm = service->Handle(Request("mnli"));
  ASSERT_TRUE(warm.status.ok());
  EXPECT_GT(warm.cache_hits, 0u);
  EXPECT_EQ(warm.cache_misses, 0u);
  // Warm answers are identical, just cheaper.
  EXPECT_EQ(warm.selected_model, cold.selected_model);
  EXPECT_EQ(warm.selected_accuracy, cold.selected_accuracy);
  EXPECT_EQ(metrics.counter("proxy_cache.hits").value(), warm.cache_hits);
}

TEST_F(SelectionServiceTest, ConcurrentRequestsReportOnlyTheirOwnLookups) {
  // Per-reply cache counts are counted per fetch inside recall, not read
  // off the shared cache's global counters, so two requests running at
  // once never count each other's lookups.
  MetricsRegistry metrics;
  ServiceOptions options;
  options.worker_threads = 2;
  options.metrics = &metrics;
  auto service = MakeService(options);
  const SelectionResponse cold = Serve(*service, Request("mnli"));
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  const uint64_t lookups = cold.cache_misses;
  ASSERT_GT(lookups, 0u);
  ASSERT_EQ(cold.cache_hits, 0u);

  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE(round);
    const uint64_t hits_before = service->cache()->hits();
    // Both requests leave the latch together, each on its own run slot.
    std::latch start(2);
    std::vector<SelectionResponse> responses(2);
    std::vector<std::thread> callers;
    for (int i = 0; i < 2; ++i) {
      callers.emplace_back([&, i] {
        start.arrive_and_wait();
        responses[i] = Serve(*service, Request("mnli"));
      });
    }
    for (std::thread& caller : callers) caller.join();
    for (const SelectionResponse& response : responses) {
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_EQ(response.cache_hits, lookups);
      EXPECT_EQ(response.cache_misses, 0u);
    }
    EXPECT_EQ(service->cache()->hits() - hits_before, 2 * lookups);
  }
}

TEST_F(SelectionServiceTest, ServeRunsOnTheCallerWhenASlotIsFree) {
  MetricsRegistry metrics;
  std::mutex mu;
  std::vector<std::thread::id> runners;
  ServiceOptions options;
  options.worker_threads = 1;
  options.metrics = &metrics;
  options.pre_handle_hook = [&] {
    std::lock_guard<std::mutex> lock(mu);
    runners.push_back(std::this_thread::get_id());
  };
  auto service = MakeService(options);

  // A free slot and an empty queue: Serve runs the pipeline right here.
  const SelectionResponse served = Serve(*service, Request("mnli"));
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  // Submit always hands the request to a worker.
  const SelectionResponse submitted = Submit(*service, Request("mnli")).get();
  ASSERT_TRUE(submitted.status.ok()) << submitted.status.ToString();
  EXPECT_EQ(served.selected_model, submitted.selected_model);

  ASSERT_EQ(runners.size(), 2u);
  EXPECT_EQ(runners[0], std::this_thread::get_id());
  EXPECT_NE(runners[1], std::this_thread::get_id());
  // Both paths record their queue wait.
  EXPECT_EQ(metrics.histogram("serve.queue_wait_us").count(), 2u);
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
}

// Dispatch answers through its callback exactly once: before it returns
// when the request runs inline or is rejected, and on a worker when it
// queues.
TEST_F(SelectionServiceTest, DispatchAnswersInlineOrOnAWorker) {
  MetricsRegistry metrics;
  ServiceOptions options;
  options.worker_threads = 1;
  options.max_queue = 1;
  options.metrics = &metrics;
  auto service = MakeService(options);
  MetricsRegistry gated_metrics;
  HookGate gate;
  options.metrics = &gated_metrics;
  options.pre_handle_hook = gate.Hook();
  auto gated = MakeService(options);

  struct Answer {
    std::thread::id thread;
    SelectionResponse response;
    int calls = 0;
  };
  const auto record = [](Answer* answer, std::latch* done) {
    return [answer, done](SelectionResponse response) {
      answer->thread = std::this_thread::get_id();
      answer->response = std::move(response);
      ++answer->calls;
      if (done != nullptr) done->count_down();
    };
  };

  // A free slot and an empty queue: answered inline, before returning.
  Answer inline_answer;
  service->Dispatch(Request("mnli"), record(&inline_answer, nullptr),
                    /*may_run_inline=*/true);
  EXPECT_EQ(inline_answer.calls, 1);
  EXPECT_EQ(inline_answer.thread, std::this_thread::get_id());
  EXPECT_TRUE(inline_answer.response.status.ok());

  // Hold the only slot on the worker, then fill the one-deep queue.
  auto held = Submit(*gated, Request("mnli"));
  gate.WaitEntered();
  Answer queued_answer;
  std::latch queued_done(1);
  gated->Dispatch(Request("boolq"), record(&queued_answer, &queued_done),
                  /*may_run_inline=*/true);
  EXPECT_EQ(gated->queue_depth(), 1u);

  // One over capacity: rejected inline.
  Answer rejected_answer;
  gated->Dispatch(Request("mnli"), record(&rejected_answer, nullptr),
                  /*may_run_inline=*/true);
  EXPECT_EQ(rejected_answer.calls, 1);
  EXPECT_EQ(rejected_answer.thread, std::this_thread::get_id());
  EXPECT_TRUE(rejected_answer.response.status.IsUnavailable());

  gate.Release();
  EXPECT_TRUE(held.get().status.ok());
  queued_done.wait();
  EXPECT_EQ(queued_answer.calls, 1);
  EXPECT_NE(queued_answer.thread, std::this_thread::get_id());
  EXPECT_TRUE(queued_answer.response.status.ok());
  EXPECT_EQ(queued_answer.response.target, "boolq");
}

TEST_F(SelectionServiceTest, CacheDisabledStillServes) {
  MetricsRegistry metrics;
  ServiceOptions options;
  options.worker_threads = 0;
  options.cache_capacity = 0;
  options.metrics = &metrics;
  auto service = MakeService(options);
  EXPECT_EQ(service->cache(), nullptr);
  const SelectionResponse a = service->Handle(Request("mnli"));
  const SelectionResponse b = service->Handle(Request("mnli"));
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.selected_model, b.selected_model);
  EXPECT_EQ(a.cache_hits, 0u);
  EXPECT_EQ(b.cache_hits, 0u);
}

TEST_F(SelectionServiceTest, TraceOnRequestOnly) {
  MetricsRegistry metrics;
  ServiceOptions options;
  options.worker_threads = 0;
  options.metrics = &metrics;
  auto service = MakeService(options);

  const SelectionResponse plain = service->Handle(Request("mnli"));
  EXPECT_FALSE(plain.has_trace);

  SelectionRequest request = Request("mnli");
  request.want_trace = true;
  const SelectionResponse traced = service->Handle(request);
  ASSERT_TRUE(traced.status.ok());
  ASSERT_TRUE(traced.has_trace);
  EXPECT_NE(traced.trace.ToJson(-1).find("mnli"), std::string::npos);
}

TEST_F(SelectionServiceTest, PipelinePoolMatchesSerial) {
  ServiceOptions serial_options;
  serial_options.worker_threads = 0;
  auto serial = MakeService(serial_options);
  ServiceOptions pooled_options;
  pooled_options.worker_threads = 0;
  pooled_options.pipeline_threads = 3;
  auto pooled = MakeService(pooled_options);
  for (const char* name : {"mnli", "boolq"}) {
    const SelectionResponse a = serial->Handle(Request(name));
    const SelectionResponse b = pooled->Handle(Request(name));
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_EQ(a.selected_model, b.selected_model) << name;
    EXPECT_EQ(a.selected_accuracy, b.selected_accuracy) << name;
    EXPECT_EQ(a.survivors_per_stage, b.survivors_per_stage) << name;
    EXPECT_EQ(a.total_epochs, b.total_epochs) << name;
  }
}

}  // namespace
}  // namespace serve
}  // namespace tps
