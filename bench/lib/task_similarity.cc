#include "bench/lib/task_similarity.h"

#include <cmath>

#include "matrix/vector_ops.h"
#include "util/logging.h"
#include "util/stats.h"

namespace tps {

TaskSimilaritySelector::TaskSimilaritySelector(
    const PretrainedModel* probe, const PerformanceMatrix* matrix,
    const std::vector<const Dataset*>& benchmarks)
    : probe_(probe), matrix_(matrix), benchmarks_(benchmarks) {
  TPS_CHECK(probe_ != nullptr);
  TPS_CHECK(matrix_ != nullptr);
  TPS_CHECK(!benchmarks_.empty());
  TPS_CHECK(benchmarks_.size() == matrix_->num_datasets());
}

StatusOr<std::vector<double>> TaskSimilaritySelector::EmbedTask(
    const Dataset& task) const {
  TPS_ASSIGN_OR_RETURN(Matrix features, probe_->ExtractFeatures(task));
  const size_t dims = features.cols();
  const double rows = static_cast<double>(features.rows());
  std::vector<double> embedding;
  embedding.reserve(2 * dims);
  // Feature means, then per-dimension standard deviations (within-task
  // feature dispersion, the cheap Fisher-diagonal stand-in). Both passes
  // run row-outer so the matrix streams in storage order; each dimension
  // still sums its rows in ascending order, so the sums are bit-identical
  // to column-strided loops.
  std::vector<double> means(dims, 0.0);
  const double* row_data = features.data().data();
  for (size_t i = 0; i < features.rows(); ++i, row_data += dims) {
    for (size_t d = 0; d < dims; ++d) means[d] += row_data[d];
  }
  if (features.rows() > 0) {
    for (double& mean : means) mean /= rows;
  }
  embedding.insert(embedding.end(), means.begin(), means.end());
  std::vector<double> accum(dims, 0.0);
  row_data = features.data().data();
  for (size_t i = 0; i < features.rows(); ++i, row_data += dims) {
    for (size_t d = 0; d < dims; ++d) {
      const double diff = row_data[d] - means[d];
      accum[d] += diff * diff;
    }
  }
  for (size_t d = 0; d < dims; ++d) {
    embedding.push_back(
        std::sqrt(accum[d] / rows));
  }
  return embedding;
}

StatusOr<TaskSimilaritySelector::NearestBenchmark>
TaskSimilaritySelector::FindNearestBenchmark(const Dataset& target) const {
  if (benchmark_embeddings_.empty()) {
    benchmark_embeddings_.reserve(benchmarks_.size());
    for (const Dataset* benchmark : benchmarks_) {
      TPS_ASSIGN_OR_RETURN(std::vector<double> embedding,
                           EmbedTask(*benchmark));
      benchmark_embeddings_.push_back(std::move(embedding));
    }
  }
  TPS_ASSIGN_OR_RETURN(std::vector<double> target_embedding,
                       EmbedTask(target));

  NearestBenchmark nearest;
  nearest.similarity = -2.0;
  for (size_t b = 0; b < benchmark_embeddings_.size(); ++b) {
    if (benchmark_embeddings_[b].size() != target_embedding.size()) {
      return Status::FailedPrecondition(
          "probe produced inconsistent embedding sizes");
    }
    const double sim = vec::CosineSimilarity(benchmark_embeddings_[b],
                                             target_embedding);
    if (sim > nearest.similarity) {
      nearest.similarity = sim;
      nearest.benchmark_index = b;
    }
  }
  return nearest;
}

StatusOr<std::vector<size_t>> TaskSimilaritySelector::RankModels(
    const Dataset& target) const {
  TPS_ASSIGN_OR_RETURN(NearestBenchmark nearest,
                       FindNearestBenchmark(target));
  const std::vector<double> row =
      matrix_->accuracy().Row(nearest.benchmark_index);
  return stats::ArgSortDescending(row);
}

}  // namespace tps
