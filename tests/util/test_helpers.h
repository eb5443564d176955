#ifndef TPS_TESTS_UTIL_TEST_HELPERS_H_
#define TPS_TESTS_UTIL_TEST_HELPERS_H_

// Conveniences over the library's shipped API that only tests call. They
// live here, not in src/, because no shipped binary uses them.

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "clustering/distance.h"
#include "core/performance_matrix.h"
#include "matrix/matrix.h"
#include "matrix/vector_ops.h"
#include "sim/finetune_simulator.h"
#include "util/thread_pool.h"

namespace tps {

namespace strings {
inline bool Contains(std::string_view text, std::string_view needle) {
  return text.find(needle) != std::string_view::npos;
}
}  // namespace strings

namespace vec {
/// Softmax of `logits` as a new vector (vec::SoftmaxInPlace on a copy).
inline std::vector<double> Softmax(const std::vector<double>& logits) {
  std::vector<double> out(logits);
  SoftmaxInPlace(out.data(), out.size());
  return out;
}
}  // namespace vec

/// Best validation accuracy over a run; 0 for an empty run.
inline double BestVal(const TrainingRun& run) {
  if (run.val_accuracy.empty()) return 0.0;
  return *std::max_element(run.val_accuracy.begin(), run.val_accuracy.end());
}

/// The (dataset, model) cell of `matrix` as a TrainingRun: its names and
/// both curves (the matrix keeps no hyperparameters, so those are the
/// defaults).
inline TrainingRun RunAt(const PerformanceMatrix& matrix,
                         size_t dataset_index, size_t model_index) {
  TrainingRun run;
  run.dataset_name = matrix.dataset_names()[dataset_index];
  run.model_name = matrix.model_names()[model_index];
  const std::span<const double> val =
      matrix.ValCurve(dataset_index, model_index);
  const std::span<const double> test =
      matrix.TestCurve(dataset_index, model_index);
  run.val_accuracy.assign(val.begin(), val.end());
  run.test_accuracy.assign(test.begin(), test.end());
  return run;
}

/// Symmetric pairwise-distance matrix over the rows of `rows`.
inline StatusOr<Matrix> PairwiseDistances(const Matrix& rows,
                                          DistanceMetric metric,
                                          size_t top_k = 5) {
  std::vector<std::vector<double>> vectors;
  vectors.reserve(rows.rows());
  for (size_t i = 0; i < rows.rows(); ++i) vectors.push_back(rows.Row(i));
  return PairwiseDistances(vectors, metric, top_k);
}

/// Tasks submitted to a ThreadPool through the group, so a test can wait
/// for them: the pool itself only waits for a ParallelFor or, in its
/// destructor, for its whole queue. Wait() blocks until every task
/// submitted through the group so far has finished, then rethrows the
/// first exception one of them threw (and clears it). Must not be called
/// from a pool task.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}

  void Submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++pending_;
    }
    pool_->Submit([this, task = std::move(task)] {
      std::exception_ptr error;
      try {
        task();
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu_);
      if (error != nullptr && first_error_ == nullptr) first_error_ = error;
      if (--pending_ == 0) done_.notify_all();
    });
  }

  void Wait() {
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_.wait(lock, [this] { return pending_ == 0; });
      error = std::exchange(first_error_, nullptr);
    }
    if (error != nullptr) std::rethrow_exception(error);
  }

 private:
  ThreadPool* pool_;
  std::mutex mu_;
  std::condition_variable done_;
  size_t pending_ = 0;
  std::exception_ptr first_error_;
};

}  // namespace tps

#endif  // TPS_TESTS_UTIL_TEST_HELPERS_H_
