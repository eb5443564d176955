#ifndef TPS_UTIL_THREAD_POOL_H_
#define TPS_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tps {

/// Fixed-size pool of worker threads draining one shared FIFO queue — no
/// work stealing, no per-thread queues. The online selection pipeline
/// (coarse recall, fine selection) and the offline performance-matrix
/// build all share one instance, so a process uses a bounded number of
/// threads no matter how many pipeline stages run.
///
/// Determinism contract: the pool guarantees nothing about *execution
/// order*; callers obtain bit-identical results by writing every task's
/// output to an index-addressed slot the caller owns (see ParallelFor) and
/// reducing the slots in index order on the submitting thread. Because all
/// per-index computations in this codebase are pure functions of their
/// index, parallel output is bit-identical to serial output.
///
/// Observability: the pool reports `threadpool.tasks_submitted` /
/// `threadpool.tasks_completed` counters, a `threadpool.task_latency_us`
/// histogram and a `threadpool.queue_depth` gauge (current + peak) to
/// MetricsRegistry::Default(). Recording is relaxed-atomic and never
/// affects scheduling or results.
class ThreadPool {
 public:
  /// Spawns max(1, num_threads) workers.
  explicit ThreadPool(int num_threads);

  /// Drains the queue and joins all workers. Pending tasks still run.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task. Tasks may call Submit and ParallelFor on the same
  /// pool. A task must not throw (ParallelFor's tasks catch and forward
  /// their own); an escaping exception terminates the process.
  void Submit(std::function<void()> task);

  /// Runs fn(i) for every i in [0, n) across the pool *and* the calling
  /// thread, returning when all n calls have finished. Work is handed out
  /// via a shared counter; all indices are executed even if some throw, so
  /// failure reporting is deterministic: the exception from the smallest
  /// failing index is rethrown on the calling thread.
  ///
  /// fn must be safe to call concurrently for distinct indices and should
  /// write its result to a caller-owned slot at index i. n == 0 is a
  /// no-op.
  ///
  /// Safe to call from inside a pool task (nested fan-out): the calling
  /// task drains the whole index range itself if every worker is busy, and
  /// it only waits on *index completion* — never on its helper tasks being
  /// scheduled — so a fully occupied pool makes nested calls degrade to a
  /// serial loop instead of deadlocking. Helper tasks that run after the
  /// range is exhausted are no-ops (they share ownership of the call
  /// state, so late execution is safe).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Clamps a requested worker count to [1, num_items] so no idle workers
  /// are spawned for work lists smaller than the request.
  static int ClampThreads(int requested, size_t num_items);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tps

#endif  // TPS_UTIL_THREAD_POOL_H_
