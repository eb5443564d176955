#include "util/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/lib/bench_util.h"
#include "util/parallel.h"
#include "util/status.h"
#include "util/test_helpers.h"

namespace tps {
namespace {

TEST(ThreadPoolTest, SpawnsRequestedWorkers) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
}

TEST(ThreadPoolTest, ClampsNonPositiveThreadCountToOne) {
  ThreadPool zero(0);
  EXPECT_EQ(zero.num_threads(), 1);
  ThreadPool negative(-4);
  EXPECT_EQ(negative.num_threads(), 1);
}

TEST(ThreadPoolTest, SubmitRunsTasksAndWaitBlocksUntilDone) {
  ThreadPool pool(4);
  TaskGroup group(&pool);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    group.Submit([&counter] { counter.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNothingSubmittedReturnsImmediately) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  group.Wait();  // Must not hang.
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // Destructor joins after the queue drains.
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForWritesIndexOrderedSlots) {
  // The determinism contract: each task writes slot i; the reduced result
  // is identical for any thread count.
  std::vector<double> expected(257);
  for (size_t i = 0; i < expected.size(); ++i) {
    expected[i] = static_cast<double>(i) * 1.25 + 0.5;
  }
  for (int threads : {1, 2, 7, 2 * DefaultThreads()}) {
    ThreadPool pool(threads);
    std::vector<double> slots(expected.size(), 0.0);
    pool.ParallelFor(slots.size(), [&](size_t i) {
      slots[i] = static_cast<double>(i) * 1.25 + 0.5;
    });
    EXPECT_EQ(slots, expected) << threads << " threads";
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoOp) {
  ThreadPool pool(4);
  bool touched = false;
  pool.ParallelFor(0, [&](size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, ParallelForSingleItem) {
  ThreadPool pool(8);
  int value = 0;
  pool.ParallelFor(1, [&](size_t i) { value = static_cast<int>(i) + 41; });
  EXPECT_EQ(value, 41);
}

TEST(ThreadPoolTest, OversubscriptionManyMoreThreadsThanWork) {
  // 4x the hardware with 3 items: the pool must neither deadlock nor drop
  // or duplicate work.
  ThreadPool pool(4 * DefaultThreads());
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, OversubscriptionManyTinyTasksStress) {
  ThreadPool pool(2 * DefaultThreads());
  std::atomic<int64_t> sum{0};
  constexpr size_t kN = 20000;
  pool.ParallelFor(kN, [&](size_t i) {
    sum.fetch_add(static_cast<int64_t>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), static_cast<int64_t>(kN) * (kN - 1) / 2);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossManyParallelFors) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::vector<int> slots(17, -1);
    pool.ParallelFor(slots.size(),
                     [&](size_t i) { slots[i] = static_cast<int>(i); });
    std::vector<int> expected(17);
    std::iota(expected.begin(), expected.end(), 0);
    ASSERT_EQ(slots, expected) << "round " << round;
  }
}

TEST(ThreadPoolTest, ParallelForPropagatesTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(
                   100,
                   [](size_t i) {
                     if (i == 31) throw std::runtime_error("task 31 failed");
                   }),
               std::runtime_error);
  // The pool survives the failure and keeps working.
  std::atomic<int> counter{0};
  pool.ParallelFor(10, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, ParallelForRethrowsSmallestFailingIndexDeterministically) {
  // All indices run even after a failure, so the propagated exception is
  // always the one from the smallest failing index — for every thread
  // count and schedule.
  for (int threads : {1, 2, 7, 2 * DefaultThreads()}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 5; ++round) {
      try {
        pool.ParallelFor(200, [](size_t i) {
          if (i % 50 == 17) {  // Fails at 17, 67, 117, 167.
            throw std::runtime_error("fail@" + std::to_string(i));
          }
        });
        FAIL() << "expected an exception";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "fail@17")
            << threads << " threads, round " << round;
      }
    }
  }
}

TEST(ThreadPoolTest, SubmitExceptionSurfacesFromWait) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  group.Submit([] { throw std::logic_error("boom"); });
  EXPECT_THROW(group.Wait(), std::logic_error);
  // The error is cleared once rethrown.
  group.Wait();
}

TEST(ThreadPoolTest, ConcurrentParallelForsFromMultipleSubmitters) {
  // Two caller threads sharing one pool must not corrupt each other's
  // per-call state.
  ThreadPool pool(4);
  std::vector<int> a(500, -1), b(500, -1);
  std::thread other([&] {
    ThreadPool inner(2);
    inner.ParallelFor(b.size(),
                      [&](size_t i) { b[i] = static_cast<int>(i) * 2; });
  });
  pool.ParallelFor(a.size(), [&](size_t i) { a[i] = static_cast<int>(i); });
  other.join();
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], static_cast<int>(i));
    ASSERT_EQ(b[i], static_cast<int>(i) * 2);
  }
}

TEST(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(DefaultThreads(), 1);
}

TEST(ThreadPoolTest, ClampThreads) {
  EXPECT_EQ(ThreadPool::ClampThreads(8, 3), 3);   // More threads than work.
  EXPECT_EQ(ThreadPool::ClampThreads(2, 100), 2); // More work than threads.
  EXPECT_EQ(ThreadPool::ClampThreads(4, 4), 4);
  EXPECT_EQ(ThreadPool::ClampThreads(0, 10), 1);  // Floor at one worker.
  EXPECT_EQ(ThreadPool::ClampThreads(-3, 10), 1);
  EXPECT_EQ(ThreadPool::ClampThreads(5, 0), 1);   // Empty grid still valid.
}

TEST(StatusParallelForTest, NullPoolRunsSerially) {
  std::vector<int> slots(20, -1);
  const Status status =
      StatusParallelFor(nullptr, slots.size(), [&](size_t i) {
        slots[i] = static_cast<int>(i);
        return Status::OK();
      });
  EXPECT_TRUE(status.ok());
  for (size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], static_cast<int>(i));
  }
}

TEST(StatusParallelForTest, ReturnsFirstErrorInIndexOrder) {
  // Serial and parallel must report the *same* failure: the non-OK status
  // with the smallest index, regardless of which task finishes first.
  const auto fn = [](size_t i) -> Status {
    if (i == 13) return Status::InvalidArgument("bad 13");
    if (i == 7) return Status::Internal("bad 7");
    return Status::OK();
  };
  const Status serial = StatusParallelFor(nullptr, 64, fn);
  EXPECT_TRUE(serial.IsInternal());
  EXPECT_EQ(serial.message(), "bad 7");
  for (int threads : {2, 7}) {
    ThreadPool pool(threads);
    const Status parallel = StatusParallelFor(&pool, 64, fn);
    EXPECT_EQ(parallel, serial) << threads << " threads";
  }
}

TEST(StatusParallelForTest, EmptyRangeIsOk) {
  ThreadPool pool(2);
  EXPECT_TRUE(StatusParallelFor(&pool, 0, [](size_t) {
                return Status::Internal("never called");
              }).ok());
}

}  // namespace
}  // namespace tps
