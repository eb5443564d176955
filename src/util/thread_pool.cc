#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "util/logging.h"
#include "util/metrics.h"

namespace tps {

namespace {

/// Pool-wide instruments, shared by every ThreadPool instance (the process
/// is expected to run one pool; per-instance split would only blur the
/// dump). Pointers are cached once — registry lookups never sit on the
/// task hot path.
struct PoolInstruments {
  Counter& submitted;
  Counter& completed;
  Histogram& latency_us;
  Gauge& queue_depth;
};

PoolInstruments& Instruments() {
  static PoolInstruments* const instruments = new PoolInstruments{
      MetricsRegistry::Default()->counter("threadpool.tasks_submitted"),
      MetricsRegistry::Default()->counter("threadpool.tasks_completed"),
      MetricsRegistry::Default()->histogram("threadpool.task_latency_us"),
      MetricsRegistry::Default()->gauge("threadpool.queue_depth")};
  return *instruments;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock,
                       [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // Shutting down and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
      Instruments().queue_depth.Set(static_cast<double>(queue_.size()));
    }
    {
      ScopedLatencyTimer timer(&Instruments().latency_us);
      task();
    }
    Instruments().completed.Increment();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  TPS_CHECK(task != nullptr);
  {
    std::unique_lock<std::mutex> lock(mu_);
    TPS_CHECK(!shutting_down_);
    queue_.push_back(std::move(task));
    Instruments().queue_depth.Set(static_cast<double>(queue_.size()));
    Instruments().queue_depth.SetMax(static_cast<double>(queue_.size()));
  }
  Instruments().submitted.Increment();
  task_ready_.notify_one();
}

namespace {

/// Per-call state of one ParallelFor: a shared claim counter, a completion
/// counter the caller waits on, and the deterministically smallest failing
/// index. Held by shared_ptr so helper tasks that the scheduler runs
/// *after* the call returns (their range already exhausted) still touch
/// live memory — that is what makes nested ParallelFor deadlock-free: the
/// caller never waits for helper tasks to be scheduled, only for all n
/// indices to finish, and it can finish all n itself.
struct ParallelForState {
  ParallelForState(size_t n_in, std::function<void(size_t)> fn_in)
      : n(n_in), fn(std::move(fn_in)) {}

  const size_t n;
  const std::function<void(size_t)> fn;
  std::atomic<size_t> next{0};

  std::mutex mu;
  std::condition_variable all_indices_done;
  size_t completed = 0;
  size_t error_index = 0;
  std::exception_ptr error;

  /// Claims indices until the range is exhausted. Every index runs even
  /// after a failure elsewhere, so the recorded error is always the one
  /// from the smallest failing index regardless of scheduling.
  void Drain() {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      std::exception_ptr thrown;
      try {
        fn(i);
      } catch (...) {
        thrown = std::current_exception();
      }
      std::unique_lock<std::mutex> lock(mu);
      if (thrown != nullptr && (error == nullptr || i < error_index)) {
        // Moved, not copied: this thread must hold no reference to the
        // recorded exception once `completed` reaches n (see ParallelFor).
        error = std::move(thrown);
        error_index = i;
      }
      ++completed;
      if (completed == n) all_indices_done.notify_all();
    }
  }
};

}  // namespace

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  auto state = std::make_shared<ParallelForState>(n, fn);
  // One helper task per worker, capped by the range; the calling thread
  // participates too, so a 1-thread pool (or a fully busy one) degenerates
  // to a serial loop on the caller.
  const size_t helpers =
      std::min(static_cast<size_t>(num_threads()), n);
  for (size_t h = 0; h < helpers; ++h) {
    Submit([state] { state->Drain(); });
  }
  state->Drain();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->all_indices_done.wait(
        lock, [&state] { return state->completed == state->n; });
    // Take the error out of the shared state, so the caller's thread holds
    // the only reference to it. Otherwise a helper task that drops the last
    // reference to the state after this call returns would free the
    // exception while the caller reads it, synchronized only by
    // libstdc++'s exception refcount, which ThreadSanitizer cannot see.
    error = std::move(state->error);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

int ThreadPool::ClampThreads(int requested, size_t num_items) {
  const size_t capped =
      std::min<size_t>(static_cast<size_t>(std::max(1, requested)),
                       std::max<size_t>(1, num_items));
  return static_cast<int>(capped);
}

}  // namespace tps
