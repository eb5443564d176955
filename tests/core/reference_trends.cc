#include "core/reference_trends.h"

#include <algorithm>

#include "clustering/kmeans.h"

namespace tps {

StatusOr<std::vector<ConvergenceTrend>> ReferenceMineTrends(
    const PerformanceMatrix& matrix, const TrendMinerOptions& options,
    size_t model_index, int stage) {
  if (model_index >= matrix.num_models()) {
    return Status::OutOfRange("model index out of range in MineTrends");
  }
  if (stage < 0) {
    return Status::InvalidArgument("stage must be >= 0");
  }
  const size_t num_datasets = matrix.num_datasets();
  if (num_datasets == 0) {
    return Status::FailedPrecondition("performance matrix has no datasets");
  }

  std::vector<double> stage_vals(num_datasets);
  for (size_t d = 0; d < num_datasets; ++d) {
    stage_vals[d] = matrix.ValAtStage(d, model_index, stage);
  }

  const int k =
      std::min<int>(options.num_trends, static_cast<int>(num_datasets));
  KMeansOptions kopts;
  kopts.num_clusters = k;
  kopts.seed = options.seed;
  TPS_ASSIGN_OR_RETURN(KMeansResult kr, KMeans1D(stage_vals, kopts));

  std::vector<ConvergenceTrend> trends(static_cast<size_t>(k));
  for (size_t d = 0; d < num_datasets; ++d) {
    const size_t c = static_cast<size_t>(kr.clustering.assignments[d]);
    trends[c].dataset_indices.push_back(d);
  }
  for (ConvergenceTrend& trend : trends) {
    double val_sum = 0.0;
    double test_sum = 0.0;
    for (size_t d : trend.dataset_indices) {
      val_sum += stage_vals[d];
      test_sum += matrix.TestCurve(d, model_index).back();
    }
    const double count = std::max<double>(
        1.0, static_cast<double>(trend.dataset_indices.size()));
    trend.mean_val = val_sum / count;
    trend.mean_final_test = test_sum / count;
  }
  trends.erase(std::remove_if(trends.begin(), trends.end(),
                              [](const ConvergenceTrend& t) {
                                return t.dataset_indices.empty();
                              }),
               trends.end());
  std::sort(trends.begin(), trends.end(),
            [](const ConvergenceTrend& a, const ConvergenceTrend& b) {
              return a.mean_val < b.mean_val;
            });
  return trends;
}

}  // namespace tps
