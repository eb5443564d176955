#ifndef TPS_CORE_PERFORMANCE_MATRIX_H_
#define TPS_CORE_PERFORMANCE_MATRIX_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "matrix/matrix.h"
#include "model/zoo.h"
#include "sim/finetune_simulator.h"
#include "sim/hyperparams.h"
#include "util/statusor.h"
#include "util/thread_pool.h"

namespace tps {

/// The offline performance matrix Matrix(D, M) of Section II plus the full
/// training curves behind it: every model in the zoo fine-tuned on every
/// benchmark dataset, with per-epoch validation accuracy and final test
/// accuracy recorded.
///
/// This is the expensive offline artifact the paper amortizes across
/// target tasks; it feeds (a) model clustering in the coarse-recall phase
/// and (b) convergence-trend mining in the fine-selection phase.
///
/// The curves are stored flat: one array of every cell's validation then
/// test values, cell-major (dataset x model x epoch), with per-cell
/// offsets, and the names once. A load is one allocation per field, not
/// one TrainingRun (two names, two vectors) per cell.
class PerformanceMatrix {
 public:
  /// Fine-tunes every model on every benchmark dataset (domain-matched;
  /// fails if any pair's domains differ) with the given hyperparameters.
  static StatusOr<PerformanceMatrix> Build(
      const ModelZoo& zoo, const std::vector<const Dataset*>& benchmarks,
      const FineTuneSimulator& simulator, const Hyperparams& hp);

  /// As Build, fanning the |D| x |M| runs over a ThreadPool of
  /// `num_threads` workers (the offline phase is embarrassingly parallel).
  /// Bit-identical to the serial Build — each run is deterministic and
  /// independent, and every (dataset, model) cell is an index-addressed
  /// slot. The worker count is clamped to the number of |D| x |M| work
  /// items, so oversubscribed requests never spawn idle threads.
  /// num_threads < 1 is an error; 1 falls back to the serial path.
  static StatusOr<PerformanceMatrix> BuildParallel(
      const ModelZoo& zoo, const std::vector<const Dataset*>& benchmarks,
      const FineTuneSimulator& simulator, const Hyperparams& hp,
      int num_threads);

  size_t num_models() const { return model_names_.size(); }
  size_t num_datasets() const { return dataset_names_.size(); }

  const std::vector<std::string>& model_names() const { return model_names_; }
  const std::vector<std::string>& dataset_names() const {
    return dataset_names_;
  }

  /// Final test accuracy matrix: num_datasets x num_models
  /// (accuracy()(i, j) = p(d_i | m_j)).
  const Matrix& accuracy() const { return accuracy_; }

  /// The model's performance vector vec(m_j) over all benchmark datasets
  /// (the clustering feature vector).
  std::vector<double> ModelVector(size_t model_index) const;

  /// acc(m_j): the model's average benchmark accuracy (the prior term of
  /// the recall score, Eq. 2).
  double ModelAverageAccuracy(size_t model_index) const;

  /// Every model's performance vector, model-major — the recall index's
  /// primary input (src/index/).
  std::vector<std::vector<double>> ModelVectors() const;

  /// acc(m_j) for every model, in zoo order.
  std::vector<double> ModelAverageAccuracies() const;

  /// Validation accuracy per epoch of (dataset, model); never empty.
  std::span<const double> ValCurve(size_t dataset_index,
                                   size_t model_index) const;
  /// Test accuracy per epoch of (dataset, model), as long as ValCurve; its
  /// last value is accuracy()(dataset_index, model_index).
  std::span<const double> TestCurve(size_t dataset_index,
                                    size_t model_index) const;

  /// Validation accuracy of (dataset, model) at a 0-based stage, clamped to
  /// the last recorded epoch (CV runs are shorter than NLP runs).
  double ValAtStage(size_t dataset_index, size_t model_index,
                    int stage) const;

  /// Serializes to the line-oriented text format the model store
  /// persists.
  std::string Serialize() const;

  /// Parses a matrix previously produced by Serialize (numbers through
  /// util/text_codec.h). The run records must come in Serialize's order,
  /// one per cell.
  static StatusOr<PerformanceMatrix> Deserialize(std::string_view text);

 private:
  PerformanceMatrix() = default;

  /// Build and BuildParallel's shared body: fans the runs over `pool`, or
  /// runs them serially when `pool` is null.
  static StatusOr<PerformanceMatrix> BuildOnPool(
      const ModelZoo& zoo, const std::vector<const Dataset*>& benchmarks,
      const FineTuneSimulator& simulator, const Hyperparams& hp,
      ThreadPool* pool);

  std::vector<std::string> model_names_;
  std::vector<std::string> dataset_names_;
  Matrix accuracy_;
  /// Cell c = dataset_index * num_models + model_index holds its
  /// validation curve at curves_[offsets_[c], offsets_[c] + e) and its test
  /// curve in the e values after it, e = (offsets_[c + 1] - offsets_[c]) / 2.
  std::vector<double> curves_;
  std::vector<size_t> offsets_;
};

}  // namespace tps

#endif  // TPS_CORE_PERFORMANCE_MATRIX_H_
