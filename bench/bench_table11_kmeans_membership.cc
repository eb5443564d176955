// Reproduces Table XI (Appendix F): k-means cluster memberships over the
// same performance vectors as Table II. The paper's finding: k-means
// clusters mix lineages and structures more than hierarchical clustering
// does, which is why the main method uses hierarchical clustering.

#include <iostream>

#include "bench/harness.h"
#include "bench/lib/baseline_clustering.h"

namespace tps {
namespace bench {
namespace {

void Report(TaskDomain domain, const char* title) {
  World world = ExitIfError(BuildWorld(domain), "build world");
  BaselineClusteringOptions options;
  options.algorithm = ClusterAlgorithm::kKMeans;
  // Match the hierarchical granularity, as the paper's appendix does.
  options.num_clusters = world.clustering->clusters.num_clusters;
  ModelClustering clustering = ExitIfError(
      ClusterModelsBaseline(*world.matrix, *world.zoo, options), "cluster");

  std::cout << "=== Table XI: k-means model clusters (" << title << ", k="
            << options.num_clusters << ") ===\n";
  std::cout << FormatClusters(clustering, *world.zoo,
                              /*include_singletons=*/false)
            << "\n";
}

}  // namespace
}  // namespace bench
}  // namespace tps

int main() {
  tps::bench::Report(tps::TaskDomain::kNLP, "NLP");
  tps::bench::Report(tps::TaskDomain::kCV, "CV");
  return 0;
}
