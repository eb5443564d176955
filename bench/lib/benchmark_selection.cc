#include "bench/lib/benchmark_selection.h"

#include <algorithm>

#include "clustering/distance.h"
#include "util/stats.h"

namespace tps {

namespace {

/// Flattens the upper triangle of the pairwise Eq. 1 distance matrix over
/// models, restricted to the benchmark rows in `subset`.
std::vector<double> DistanceVectorFor(const PerformanceMatrix& matrix,
                                      const std::vector<size_t>& subset,
                                      size_t top_k) {
  const size_t num_models = matrix.num_models();
  // Model vectors restricted to the subset rows.
  std::vector<std::vector<double>> vectors(num_models);
  for (size_t m = 0; m < num_models; ++m) {
    vectors[m].reserve(subset.size());
    for (size_t d : subset) {
      vectors[m].push_back(matrix.accuracy().At(d, m));
    }
  }
  const size_t k = std::clamp<size_t>(top_k, 1, subset.size());
  std::vector<double> flattened;
  flattened.reserve(num_models * (num_models - 1) / 2);
  for (size_t i = 0; i < num_models; ++i) {
    for (size_t j = i + 1; j < num_models; ++j) {
      flattened.push_back(
          Distance(vectors[i], vectors[j], DistanceMetric::kTopKAbsDiff, k));
    }
  }
  return flattened;
}

}  // namespace

StatusOr<BenchmarkSelectionResult> SelectCompactBenchmarks(
    const PerformanceMatrix& matrix, size_t subset_size, size_t top_k) {
  const size_t num_datasets = matrix.num_datasets();
  if (subset_size < 1 || subset_size > num_datasets) {
    return Status::InvalidArgument(
        "subset_size must be in [1, num_datasets]");
  }
  if (matrix.num_models() < 2) {
    return Status::InvalidArgument(
        "benchmark selection needs at least 2 models");
  }

  std::vector<size_t> all(num_datasets);
  for (size_t d = 0; d < num_datasets; ++d) all[d] = d;
  const std::vector<double> reference =
      DistanceVectorFor(matrix, all, top_k);

  BenchmarkSelectionResult result;
  std::vector<bool> used(num_datasets, false);
  for (size_t step = 0; step < subset_size; ++step) {
    double best_corr = -2.0;
    size_t best_dataset = num_datasets;
    for (size_t candidate = 0; candidate < num_datasets; ++candidate) {
      if (used[candidate]) continue;
      std::vector<size_t> trial = result.selected;
      trial.push_back(candidate);
      const std::vector<double> trial_distances =
          DistanceVectorFor(matrix, trial, top_k);
      const double corr =
          stats::PearsonCorrelation(trial_distances, reference);
      if (corr > best_corr) {
        best_corr = corr;
        best_dataset = candidate;
      }
    }
    used[best_dataset] = true;
    result.selected.push_back(best_dataset);
    result.distance_correlation = best_corr;
  }
  return result;
}

}  // namespace tps
