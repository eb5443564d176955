// Reproduces Table I: silhouette coefficient of model clusterings under
// performance-based (Eq. 1, k=5) vs text-based (model-card embedding)
// similarity, for hierarchical and k-means clustering, on both domains.
// The paper's finding: performance-based similarity with hierarchical
// clustering wins.

#include <iostream>

#include "bench/harness.h"
#include "bench/lib/baseline_clustering.h"
#include "bench/lib/silhouette.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace tps {
namespace bench {
namespace {

double SilhouetteFor(const World& world, ModelSimilarityKind similarity,
                     ClusterAlgorithm algorithm) {
  BaselineClusteringOptions options;
  options.similarity = similarity;
  options.algorithm = algorithm;
  if (algorithm == ClusterAlgorithm::kKMeans) {
    // Match the hierarchical run's granularity for a fair comparison.
    options.num_clusters = world.clustering->clusters.num_clusters;
  }
  ModelClustering clustering = ExitIfError(
      ClusterModelsBaseline(*world.matrix, *world.zoo, options), "cluster");
  return ExitIfError(
      SilhouetteScore(clustering.distances, clustering.clusters),
      "silhouette");
}

}  // namespace
}  // namespace bench
}  // namespace tps

int main() {
  using namespace tps;
  using namespace tps::bench;

  World nlp = ExitIfError(BuildWorld(TaskDomain::kNLP), "nlp world");
  World cv = ExitIfError(BuildWorld(TaskDomain::kCV), "cv world");

  std::cout << "=== Table I: clustering methods comparison (silhouette "
               "coefficient) ===\n";
  TablePrinter table({"model similarity", "hierarchical NLP",
                      "hierarchical CV", "k-means NLP", "k-means CV"});
  for (auto similarity :
       {ModelSimilarityKind::kPerformance, ModelSimilarityKind::kTextCard}) {
    const char* name = similarity == ModelSimilarityKind::kPerformance
                           ? "performance-based"
                           : "text-based";
    table.AddRow(
        {name,
         strings::FormatDouble(
             SilhouetteFor(nlp, similarity, ClusterAlgorithm::kHierarchical),
             3),
         strings::FormatDouble(
             SilhouetteFor(cv, similarity, ClusterAlgorithm::kHierarchical),
             3),
         strings::FormatDouble(
             SilhouetteFor(nlp, similarity, ClusterAlgorithm::kKMeans), 3),
         strings::FormatDouble(
             SilhouetteFor(cv, similarity, ClusterAlgorithm::kKMeans), 3)});
  }
  table.Print(std::cout);
  std::cout << "(paper: performance-based + hierarchical is best on both "
               "domains)\n";
  return 0;
}
