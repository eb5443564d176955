// Reproduces Table X (Appendix D): sensitivity of the Eq. 1 model
// similarity to the top-k parameter — silhouette coefficient of the
// hierarchical clustering for k in {5, 10, 15} (NLP) and {3, 4, 5} (CV).
// The paper: the coefficient fluctuates within a small range, so k = 5 is
// a safe default. Also reports plain Euclidean and cosine distances as an
// ablation of the top-k design choice.

#include <iostream>

#include "bench/harness.h"
#include "bench/lib/silhouette.h"
#include "clustering/distance.h"
#include "clustering/hierarchical.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace tps {
namespace bench {
namespace {

double SilhouetteForMetric(const World& world, DistanceMetric metric,
                           size_t top_k) {
  std::vector<std::vector<double>> vectors;
  for (size_t m = 0; m < world.zoo->size(); ++m) {
    vectors.push_back(world.matrix->ModelVector(m));
  }
  const Matrix distances =
      ExitIfError(PairwiseDistances(vectors, metric, top_k), "distances");
  HierarchicalOptions options;
  options.num_clusters = world.clustering->clusters.num_clusters;
  const HierarchicalResult result =
      ExitIfError(HierarchicalCluster(distances, options), "cluster");
  return ExitIfError(SilhouetteScore(distances, result.clustering),
                     "silhouette");
}

void Report(TaskDomain domain, const char* title,
            const std::vector<size_t>& ks) {
  World world = ExitIfError(BuildWorld(domain), "build world");
  std::cout << "=== Table X: Eq. 1 top-k sensitivity (" << title << ") ===\n";
  TablePrinter table({"distance", "silhouette"});
  for (size_t k : ks) {
    table.AddRow({strings::Format("top-%zu abs-diff", k),
                  strings::FormatDouble(
                      SilhouetteForMetric(world,
                                          DistanceMetric::kTopKAbsDiff, k),
                      3)});
  }
  table.AddRow({"euclidean (ablation)",
                strings::FormatDouble(
                    SilhouetteForMetric(world, DistanceMetric::kEuclidean,
                                        5),
                    3)});
  table.AddRow({"cosine (ablation)",
                strings::FormatDouble(
                    SilhouetteForMetric(world, DistanceMetric::kCosine, 5),
                    3)});
  table.Print(std::cout);
  std::cout << "\n";
}

}  // namespace
}  // namespace bench
}  // namespace tps

int main() {
  tps::bench::Report(tps::TaskDomain::kNLP, "NLP", {5, 10, 15});
  tps::bench::Report(tps::TaskDomain::kCV, "CV", {3, 4, 5});
  return 0;
}
