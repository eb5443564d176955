// Ablation for the paper's future-work item 2: how small can the benchmark
// suite get before the offline artifacts degrade? For subset sizes 2..24
// (NLP) we greedily select compact benchmark suites, then measure (a) the
// distance-structure correlation with the full suite and (b) the adjusted
// Rand index between the model clustering built on the subset vs the full
// one. The offline fine-tuning cost scales linearly with the suite size,
// so a subset preserving the clustering at half the size halves the
// offline bill.

#include <iostream>

#include "bench/harness.h"
#include "bench/lib/benchmark_selection.h"
#include "bench/lib/rand_index.h"
#include "clustering/distance.h"
#include "clustering/hierarchical.h"
#include "core/model_clusterer.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace tps {
namespace bench {
namespace {

void Report(TaskDomain domain, const char* title,
            const std::vector<size_t>& sizes) {
  World world = ExitIfError(BuildWorld(domain), "build world");
  const int full_clusters = world.clustering->clusters.num_clusters;

  std::cout << "=== Ablation: compact benchmark suites (" << title
            << ", full suite " << world.matrix->num_datasets()
            << " datasets) ===\n";
  TablePrinter table({"subset size", "offline cost (trains)",
                      "distance correlation", "clustering ARI vs full"});
  for (size_t size : sizes) {
    BenchmarkSelectionResult selection = ExitIfError(
        SelectCompactBenchmarks(*world.matrix, size), "select");

    // Re-cluster on the subset and compare partitions.
    std::vector<std::vector<double>> vectors(world.zoo->size());
    for (size_t m = 0; m < world.zoo->size(); ++m) {
      for (size_t d : selection.selected) {
        vectors[m].push_back(world.matrix->accuracy().At(d, m));
      }
    }
    Matrix distances = ExitIfError(
        PairwiseDistances(vectors, DistanceMetric::kTopKAbsDiff, 5),
        "distances");
    HierarchicalOptions hopts;
    hopts.num_clusters = full_clusters;
    HierarchicalResult subset_clusters =
        ExitIfError(HierarchicalCluster(distances, hopts), "cluster");
    const double ari = ExitIfError(
        AdjustedRandIndex(world.clustering->clusters,
                          subset_clusters.clustering),
        "ari");

    table.AddRow({std::to_string(size),
                  std::to_string(size * world.zoo->size()),
                  strings::FormatDouble(selection.distance_correlation, 3),
                  strings::FormatDouble(ari, 3)});
  }
  table.Print(std::cout);
  std::cout << "\n";
}

}  // namespace
}  // namespace bench
}  // namespace tps

int main() {
  tps::bench::Report(tps::TaskDomain::kNLP, "NLP", {2, 4, 8, 12, 16, 24});
  tps::bench::Report(tps::TaskDomain::kCV, "CV", {2, 4, 6, 8, 10});
  return 0;
}
