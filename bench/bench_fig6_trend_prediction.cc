// Reproduces Fig. 6: per-model evaluation of convergence-trend mining on
// the first validation results.
//  - Blue bars in the paper: silhouette of the stage-1 trend clustering vs
//    a random clustering of the same sizes (trend clustering should win).
//  - Red bars: relative error of predicting each benchmark dataset's final
//    test accuracy from its matched trend's mean, vs predicting with the
//    global mean of all benchmark test accuracies (trend prediction should
//    be more accurate).

#include <cmath>
#include <iostream>

#include "bench/harness.h"
#include "bench/lib/silhouette.h"
#include "clustering/distance.h"
#include "core/convergence_trend.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace tps {
namespace bench {
namespace {

constexpr int kStage = 0;  // First validation.
constexpr size_t kRandomDraws = 20;

void Report(TaskDomain domain, const char* title) {
  World world = ExitIfError(BuildWorld(domain), "build world");
  ConvergenceTrendMiner miner(world.matrix.get());
  Rng rng(99);

  std::cout << "=== Fig. 6: trend clustering quality (" << title
            << ", first validation) ===\n";
  TablePrinter table({"model", "silhouette(trend)", "silhouette(random)",
                      "rel.err(trend)", "rel.err(global mean)"});

  std::vector<double> trend_sil_all, random_sil_all, trend_err_all,
      mean_err_all;
  const size_t num_datasets = world.matrix->num_datasets();
  for (size_t m = 0; m < world.zoo->size(); ++m) {
    const std::vector<ConvergenceTrend> trends =
        ExitIfError(miner.MineTrends(m, kStage), "mine");

    // Rebuild the flat clustering of datasets from the trend memberships.
    ClusteringResult clustering;
    clustering.assignments.assign(num_datasets, 0);
    clustering.num_clusters = static_cast<int>(trends.size());
    std::vector<double> stage_vals(num_datasets);
    for (size_t x = 0; x < trends.size(); ++x) {
      for (size_t d : trends[x].dataset_indices) {
        clustering.assignments[d] = static_cast<int>(x);
      }
    }
    for (size_t d = 0; d < num_datasets; ++d) {
      stage_vals[d] = world.matrix->ValAtStage(d, m, kStage);
    }
    std::vector<std::vector<double>> points;
    points.reserve(num_datasets);
    for (double v : stage_vals) points.push_back({v});
    const Matrix distances = ExitIfError(
        PairwiseDistances(points, DistanceMetric::kEuclidean), "distances");

    const double trend_sil =
        ExitIfError(SilhouetteScore(distances, clustering), "silhouette");
    double random_sil = 0.0;
    for (size_t draw = 0; draw < kRandomDraws; ++draw) {
      ClusteringResult shuffled = clustering;
      rng.Shuffle(shuffled.assignments);
      random_sil +=
          ExitIfError(SilhouetteScore(distances, shuffled), "silhouette");
    }
    random_sil /= static_cast<double>(kRandomDraws);

    // Prediction error: each benchmark dataset as pseudo-target.
    std::vector<double> final_tests(num_datasets);
    for (size_t d = 0; d < num_datasets; ++d) {
      final_tests[d] = world.matrix->run(d, m).final_test();
    }
    const double global_mean = stats::Mean(final_tests);
    double trend_err = 0.0, mean_err = 0.0;
    for (size_t d = 0; d < num_datasets; ++d) {
      const double actual = std::max(final_tests[d], 1e-9);
      const double pred =
          ConvergenceTrendMiner::PredictFinal(trends, stage_vals[d]);
      trend_err += std::fabs(pred - actual) / actual;
      mean_err += std::fabs(global_mean - actual) / actual;
    }
    trend_err /= static_cast<double>(num_datasets);
    mean_err /= static_cast<double>(num_datasets);

    table.AddRow({world.zoo->model(m).name(),
                  strings::FormatDouble(trend_sil, 3),
                  strings::FormatDouble(random_sil, 3),
                  strings::FormatDouble(trend_err, 3),
                  strings::FormatDouble(mean_err, 3)});
    trend_sil_all.push_back(trend_sil);
    random_sil_all.push_back(random_sil);
    trend_err_all.push_back(trend_err);
    mean_err_all.push_back(mean_err);
  }
  table.Print(std::cout);
  std::cout << strings::Format(
      "means: silhouette %.3f (trend) vs %.3f (random); rel. error %.3f "
      "(trend) vs %.3f (global mean)\n\n",
      stats::Mean(trend_sil_all), stats::Mean(random_sil_all),
      stats::Mean(trend_err_all), stats::Mean(mean_err_all));
}

}  // namespace
}  // namespace bench
}  // namespace tps

int main() {
  tps::bench::Report(tps::TaskDomain::kNLP, "NLP");
  tps::bench::Report(tps::TaskDomain::kCV, "CV");
  return 0;
}
