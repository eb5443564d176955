// ThreadPool stress suite: many concurrent external submitters plus nested
// ParallelFor issued from pool threads, with the pool's own observability
// counters audited for consistency. Three things are on trial:
//
//  1. Liveness — none of the shapes below may deadlock (the nested
//     ParallelFor contract: callers wait on index completion, never on
//     helper scheduling).
//  2. Correctness — every submitted task runs exactly once; every
//     ParallelFor index is computed exactly once into its own slot.
//  3. Telemetry — `threadpool.tasks_submitted`, `threadpool.tasks_completed`
//     and the `threadpool.task_latency_us` histogram agree with each other
//     and with the ground-truth task count.
//
// Pool instruments live in MetricsRegistry::Default() and are shared by
// every pool in the process, so all assertions are on *deltas* across the
// test body, taken after the pool is destroyed (destruction drains the
// queue). Run under TSan via the `parallel` ctest label.

#include <atomic>
#include <cstddef>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/test_helpers.h"

namespace tps {
namespace {

struct PoolCounters {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t latency_count = 0;

  static PoolCounters Snapshot() {
    MetricsRegistry* registry = MetricsRegistry::Default();
    return {registry->counter("threadpool.tasks_submitted").value(),
            registry->counter("threadpool.tasks_completed").value(),
            registry->histogram("threadpool.task_latency_us").count()};
  }
};

TEST(ThreadPoolStressTest, ManyConcurrentSubmitters) {
  constexpr int kSubmitters = 6;
  constexpr int kTasksPerSubmitter = 250;
  const PoolCounters before = PoolCounters::Snapshot();
  std::atomic<int> executed{0};
  {
    ThreadPool pool(4);
    std::vector<std::thread> submitters;
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&pool, &executed] {
        for (int t = 0; t < kTasksPerSubmitter; ++t) {
          pool.Submit(
              [&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
        }
      });
    }
    for (std::thread& submitter : submitters) submitter.join();
  }  // The destructor drains the queue before joining.
  const PoolCounters after = PoolCounters::Snapshot();

  constexpr uint64_t kTotal = kSubmitters * kTasksPerSubmitter;
  EXPECT_EQ(executed.load(), static_cast<int>(kTotal));
  // Exactly our tasks, each counted once, each latency-timed once.
  EXPECT_EQ(after.submitted - before.submitted, kTotal);
  EXPECT_EQ(after.completed - before.completed, kTotal);
  EXPECT_EQ(after.latency_count - before.latency_count, kTotal);
}

TEST(ThreadPoolStressTest, NestedParallelForFromPoolThreads) {
  // Outer ParallelFor whose body runs another ParallelFor on the SAME pool
  // — the shape the selection pipeline produces when the performance-matrix
  // build fans out per-(model, benchmark) and each cell fans out again.
  // Helpers for the inner calls execute on already-busy workers, so this
  // deadlocks unless nested calls can degrade to a serial drain.
  constexpr size_t kOuter = 12;
  constexpr size_t kInner = 24;
  ThreadPool pool(3);
  std::vector<std::vector<size_t>> cells(kOuter,
                                         std::vector<size_t>(kInner, 0));
  pool.ParallelFor(kOuter, [&pool, &cells](size_t i) {
    pool.ParallelFor(kInner, [&cells, i](size_t j) {
      cells[i][j] = i * kInner + j + 1;
    });
  });
  for (size_t i = 0; i < kOuter; ++i) {
    for (size_t j = 0; j < kInner; ++j) {
      EXPECT_EQ(cells[i][j], i * kInner + j + 1);
    }
  }
}

TEST(ThreadPoolStressTest, TriplyNestedParallelForCompletes) {
  ThreadPool pool(2);
  std::atomic<size_t> touched{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(4, [&](size_t) {
      pool.ParallelFor(4,
                       [&](size_t) { touched.fetch_add(1); });
    });
  });
  EXPECT_EQ(touched.load(), 4u * 4u * 4u);
}

TEST(ThreadPoolStressTest, NestedParallelForFromSubmittedTasks) {
  // Plain Submit()ed tasks that each launch a ParallelFor: every worker
  // can be inside a nested call simultaneously.
  constexpr int kTasks = 16;
  constexpr size_t kRange = 32;
  ThreadPool pool(4);
  TaskGroup group(&pool);
  std::vector<std::vector<int>> slots(kTasks, std::vector<int>(kRange, 0));
  for (int t = 0; t < kTasks; ++t) {
    group.Submit([&pool, &slots, t] {
      pool.ParallelFor(kRange,
                       [&slots, t](size_t i) { slots[t][i] = t + 1; });
    });
  }
  group.Wait();
  for (int t = 0; t < kTasks; ++t) {
    const long expected = static_cast<long>(kRange) * (t + 1);
    EXPECT_EQ(std::accumulate(slots[t].begin(), slots[t].end(), 0L),
              expected);
  }
}

TEST(ThreadPoolStressTest, MixedLoadTelemetryStaysConsistent) {
  // External submitters racing against nested ParallelFor traffic. The
  // exact helper-task count is scheduler-dependent, so the invariant under
  // audit is internal consistency: once the pool is destroyed (queue
  // drained, workers joined), submitted == completed == latency samples,
  // and the direct-task ground truth is covered.
  constexpr int kSubmitters = 4;
  constexpr int kDirectTasks = 100;
  const PoolCounters before = PoolCounters::Snapshot();
  std::atomic<int> direct_runs{0};
  std::atomic<size_t> indices_run{0};
  {
    ThreadPool pool(4);
    std::vector<std::thread> submitters;
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&] {
        for (int t = 0; t < kDirectTasks; ++t) {
          pool.Submit([&] { direct_runs.fetch_add(1); });
        }
        pool.ParallelFor(64, [&](size_t) { indices_run.fetch_add(1); });
      });
    }
    for (std::thread& submitter : submitters) submitter.join();
  }
  const PoolCounters after = PoolCounters::Snapshot();

  EXPECT_EQ(direct_runs.load(), kSubmitters * kDirectTasks);
  EXPECT_EQ(indices_run.load(), static_cast<size_t>(kSubmitters) * 64u);
  const uint64_t submitted = after.submitted - before.submitted;
  const uint64_t completed = after.completed - before.completed;
  const uint64_t timed = after.latency_count - before.latency_count;
  EXPECT_EQ(submitted, completed);
  EXPECT_EQ(submitted, timed);
  EXPECT_GE(submitted,
            static_cast<uint64_t>(kSubmitters) * kDirectTasks);
  // Peak queue depth was observed (gauge max is monotone process-wide).
  EXPECT_GT(MetricsRegistry::Default()
                ->gauge("threadpool.queue_depth")
                .max_value(),
            0.0);
}

TEST(ThreadPoolStressTest, WaitIsReusableUnderChurn) {
  // Submit / Wait cycles interleaved with nested fan-out: Wait must be a
  // clean barrier every round, not just once.
  ThreadPool pool(3);
  TaskGroup group(&pool);
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round) {
    for (int t = 0; t < 10; ++t) {
      group.Submit([&] { total.fetch_add(1); });
    }
    pool.ParallelFor(10, [&](size_t) { total.fetch_add(1); });
    group.Wait();
    EXPECT_EQ(total.load(), (round + 1) * 20);
  }
}

}  // namespace
}  // namespace tps
