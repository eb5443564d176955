#ifndef TPS_CORE_MODEL_CLUSTERER_H_
#define TPS_CORE_MODEL_CLUSTERER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "clustering/cluster_result.h"
#include "core/performance_matrix.h"
#include "index/recall_index.h"
#include "matrix/matrix.h"
#include "model/zoo.h"
#include "util/statusor.h"

namespace tps {

/// How model-to-model similarity is measured before clustering.
enum class ModelSimilarityKind {
  /// The paper's Eq. 1: 1 - mean of the top-k largest per-benchmark
  /// accuracy differences, computed from the performance matrix.
  kPerformance,
  /// Baseline of Table I: cosine similarity of embedded model-card text.
  kTextCard,
};

enum class ClusterAlgorithm {
  /// Agglomerative, average linkage — the paper's winning configuration.
  kHierarchical,
  kKMeans,
};

struct ModelClusteringOptions {
  ModelSimilarityKind similarity = ModelSimilarityKind::kPerformance;
  ClusterAlgorithm algorithm = ClusterAlgorithm::kHierarchical;
  /// Eq. 1 top-k (Appendix D fixes k = 5).
  size_t top_k = 5;
  /// Cluster count. For k-means this is k (must be > 0). For hierarchical,
  /// > 0 merges to exactly that many clusters; 0 cuts the dendrogram at
  /// `distance_threshold` instead (how the paper obtains a natural mix of
  /// singleton and non-singleton clusters).
  int num_clusters = 0;
  double distance_threshold = 0.085;
  uint64_t seed = 42;
};

/// A clustering of the model repository plus everything the recall phase
/// needs: per-cluster representatives and the singleton split.
struct ModelClustering {
  ClusteringResult clusters;
  /// Per cluster: index (into the zoo) of the representative model — the
  /// member with the highest average benchmark accuracy.
  std::vector<size_t> representatives;
  /// Pairwise model distance matrix the clustering ran on.
  Matrix distances;
  /// Options used (for reporting).
  ModelClusteringOptions options;

  /// Ids of clusters with more than one member, ascending.
  std::vector<int> NonSingletonClusters() const;
  /// Ids of clusters with exactly one member, ascending.
  std::vector<int> SingletonClusters() const;
  bool IsSingletonModel(size_t model_index) const;
  int ClusterOf(size_t model_index) const;
};

/// Clusters the model repository. The performance matrix provides Eq. 1
/// features and the average-accuracy representative rule; the zoo provides
/// model cards for the text baseline. Fails if sizes disagree or options
/// are invalid.
StatusOr<ModelClustering> ClusterModels(const PerformanceMatrix& matrix,
                                        const ModelZoo& zoo,
                                        const ModelClusteringOptions& options);

/// Bridges between the clustering artifact and the recall index subsystem
/// (src/index/), in both directions:
///
/// A brute-force index over an existing clustering's partitions — the
/// exact index CoarseRecall ranks through when a request brings none.
/// Vectors, priors, assignments, representatives and the Eq. 1 top-k all
/// come from the clustering + matrix pair, so recall through the returned
/// index is bit-identical to the paper's clustering sweep (the test-only
/// reference in tests/index/reference_recall.h).
StatusOr<BruteForceRecallIndex> IndexFromClustering(
    const PerformanceMatrix& matrix, const ModelClustering& clustering);

/// A ModelClustering over a recall index's partitions (assignments +
/// representatives; no O(n^2) distance matrix — generated zoos are too
/// large for one). This is how large generated zoos get a serving
/// clustering: the index partitioning doubles as the cluster structure,
/// so the exact index over it is the brute-force oracle the probed index
/// is measured against. Fails if any partition is empty.
StatusOr<ModelClustering> ClusteringFromIndexStructure(
    const IndexStructure& structure);

/// Renders cluster membership as text lines ("C1 (size 5): a, b, ...") for
/// the Table II / Table XI harnesses. Singleton clusters are summarized at
/// the end unless `include_singletons`.
std::string FormatClusters(const ModelClustering& clustering,
                           const ModelZoo& zoo, bool include_singletons);

/// Serializes a clustering (assignments, representatives, options,
/// distance matrix) to the line-oriented text format the model store
/// persists.
std::string SerializeClustering(const ModelClustering& clustering);

/// Parses a clustering produced by SerializeClustering.
StatusOr<ModelClustering> DeserializeClustering(const std::string& text);

}  // namespace tps

#endif  // TPS_CORE_MODEL_CLUSTERER_H_
