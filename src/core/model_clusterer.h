#ifndef TPS_CORE_MODEL_CLUSTERER_H_
#define TPS_CORE_MODEL_CLUSTERER_H_

#include <string>
#include <string_view>
#include <vector>

#include "clustering/cluster_result.h"
#include "core/performance_matrix.h"
#include "index/recall_index.h"
#include "matrix/matrix.h"
#include "model/zoo.h"
#include "util/statusor.h"

namespace tps {

/// The paper's coarse-recall clustering: Eq. 1 performance similarity,
/// then average-linkage hierarchical clustering. (Table I's text-card and
/// k-means baselines live in bench/lib/baseline_clustering.h.)
struct ModelClusteringOptions {
  /// Eq. 1 top-k (Appendix D fixes k = 5).
  size_t top_k = 5;
  /// Cluster count: > 0 merges to exactly that many clusters; 0 cuts the
  /// dendrogram at `distance_threshold` instead (how the paper obtains a
  /// natural mix of singleton and non-singleton clusters).
  int num_clusters = 0;
  double distance_threshold = 0.085;
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
};

/// Clusters the model repository. The performance matrix provides Eq. 1
/// features and the average-accuracy representative rule; the zoo must
/// hold the matrix's models. Fails if sizes disagree or options are
/// invalid.
StatusOr<ModelClustering> ClusterModels(const PerformanceMatrix& matrix,
                                        const ModelZoo& zoo,
                                        const ModelClusteringOptions& options);

/// Per cluster, the index (into the zoo) of the member with the highest
/// average benchmark accuracy; the first such member wins ties.
std::vector<size_t> PickRepresentatives(const PerformanceMatrix& matrix,
                                        const ClusteringResult& clusters);

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
/// persists: `tps-model-clustering v2`. Numbers go through
/// util/text_codec.h: distances at 17 significant digits, the distance
/// threshold in its shortest round-trip form, so every double reads back
/// bit for bit.
std::string SerializeClustering(const ModelClustering& clustering);

/// Parses a clustering produced by SerializeClustering (numbers read with
/// from_chars through util/text_codec.h). Also reads v1, which carried
/// three more option fields (similarity kind, algorithm, k-means seed):
/// they are range-checked as before, then dropped.
StatusOr<ModelClustering> DeserializeClustering(std::string_view text);

}  // namespace tps

#endif  // TPS_CORE_MODEL_CLUSTERER_H_
