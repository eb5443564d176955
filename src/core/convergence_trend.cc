#include "core/convergence_trend.h"

#include <algorithm>
#include <cmath>

#include "clustering/kmeans.h"
#include "util/logging.h"

namespace tps {

ConvergenceTrendMiner::ConvergenceTrendMiner(const PerformanceMatrix* matrix,
                                             TrendMinerOptions options)
    : matrix_(matrix), options_(options) {
  TPS_CHECK(matrix_ != nullptr);
  TPS_CHECK(options_.num_trends >= 1);
  for (size_t d = 0; d < matrix_->num_datasets(); ++d) {
    for (size_t m = 0; m < matrix_->num_models(); ++m) {
      num_stages_ = std::max(num_stages_, matrix_->ValCurve(d, m).size());
    }
  }
  cells_ = std::make_unique<Cell[]>(matrix_->num_models() * num_stages_);
}

StatusOr<const ConvergenceTrendMiner::Cell*> ConvergenceTrendMiner::Lookup(
    size_t model_index, int stage) const {
  if (model_index >= matrix_->num_models()) {
    return Status::OutOfRange("model index out of range in MineTrends");
  }
  if (stage < 0) {
    return Status::InvalidArgument("stage must be >= 0");
  }
  if (matrix_->num_datasets() == 0) {
    return Status::FailedPrecondition("performance matrix has no datasets");
  }
  const int clamped = std::min(stage, static_cast<int>(num_stages_) - 1);
  Cell& cell =
      cells_[model_index * num_stages_ + static_cast<size_t>(clamped)];
  std::call_once(cell.mined, [&] {
    StatusOr<std::vector<ConvergenceTrend>> mined = Mine(model_index, clamped);
    if (mined.ok()) {
      cell.trends = std::move(*mined);
    } else {
      cell.status = mined.status();
    }
  });
  return &cell;
}

StatusOr<std::vector<ConvergenceTrend>> ConvergenceTrendMiner::MineTrends(
    size_t model_index, int stage) const {
  TPS_ASSIGN_OR_RETURN(const Cell* cell, Lookup(model_index, stage));
  TPS_RETURN_NOT_OK(cell->status);
  return cell->trends;
}

StatusOr<double> ConvergenceTrendMiner::Predict(size_t model_index, int stage,
                                                double observed_val) const {
  TPS_ASSIGN_OR_RETURN(const Cell* cell, Lookup(model_index, stage));
  TPS_RETURN_NOT_OK(cell->status);
  if (cell->trends.empty()) {
    return Status::Internal("trend mining produced no trends");
  }
  return PredictFinal(cell->trends, observed_val);
}

StatusOr<std::vector<ConvergenceTrend>> ConvergenceTrendMiner::Mine(
    size_t model_index, int stage) const {
  const size_t num_datasets = matrix_->num_datasets();
  std::vector<double> stage_vals(num_datasets);
  for (size_t d = 0; d < num_datasets; ++d) {
    stage_vals[d] = matrix_->ValAtStage(d, model_index, stage);
  }

  const int k =
      std::min<int>(options_.num_trends, static_cast<int>(num_datasets));
  KMeansOptions kopts;
  kopts.num_clusters = k;
  kopts.seed = options_.seed;
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
      test_sum += matrix_->accuracy().At(d, model_index);
    }
    const double count =
        std::max<double>(1.0, static_cast<double>(trend.dataset_indices.size()));
    trend.mean_val = val_sum / count;
    trend.mean_final_test = test_sum / count;
  }
  // Drop empty trends (k-means re-seeding makes them rare but possible),
  // then sort by ascending mean validation accuracy.
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

size_t ConvergenceTrendMiner::MatchTrend(
    const std::vector<ConvergenceTrend>& trends, double observed_val) {
  TPS_CHECK(!trends.empty());
  size_t best = 0;
  double best_gap = std::fabs(trends[0].mean_val - observed_val);
  for (size_t x = 1; x < trends.size(); ++x) {
    const double gap = std::fabs(trends[x].mean_val - observed_val);
    if (gap < best_gap) {
      best_gap = gap;
      best = x;
    }
  }
  return best;
}

double ConvergenceTrendMiner::PredictFinal(
    const std::vector<ConvergenceTrend>& trends, double observed_val) {
  return trends[MatchTrend(trends, observed_val)].mean_final_test;
}

}  // namespace tps
