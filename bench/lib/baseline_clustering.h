#ifndef TPS_BENCH_LIB_BASELINE_CLUSTERING_H_
#define TPS_BENCH_LIB_BASELINE_CLUSTERING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/model_clusterer.h"
#include "core/performance_matrix.h"
#include "model/zoo.h"
#include "util/statusor.h"

namespace tps {

/// Hashed bag-of-words text embedder: the stand-in for SBERT in the
/// text-based model-similarity baseline of Table I (see DESIGN.md).
///
/// Tokens are lower-cased, split on non-alphanumerics, hashed into
/// `dims` buckets with a signed hash (feature hashing), weighted by
/// 1/sqrt(token frequency within the document), and L2-normalized, so
/// cosine similarity between embeddings reflects token overlap.
class HashedTextEmbedder {
 public:
  explicit HashedTextEmbedder(size_t dims = 64);

  /// Embeds one document into a unit-norm vector of `dims()` entries (the
  /// zero vector for documents with no tokens).
  std::vector<double> Embed(const std::string& text) const;

  /// Cosine similarity between two documents' embeddings.
  double Similarity(const std::string& a, const std::string& b) const;

  size_t dims() const { return dims_; }

  /// Lower-cased alphanumeric tokens of `text`, in order.
  static std::vector<std::string> Tokenize(const std::string& text);

 private:
  size_t dims_;
};

/// How model-to-model similarity is measured before clustering.
enum class ModelSimilarityKind {
  /// The paper's Eq. 1, as ClusterModels computes it.
  kPerformance,
  /// Baseline of Table I: cosine similarity of embedded model-card text.
  kTextCard,
};

enum class ClusterAlgorithm {
  /// Agglomerative, average linkage, as ClusterModels runs it.
  kHierarchical,
  /// Baseline of Tables I and XI.
  kKMeans,
};

/// One cell of Table I: a similarity and an algorithm, plus the shipped
/// clustering's knobs and the k-means seed.
struct BaselineClusteringOptions {
  ModelSimilarityKind similarity = ModelSimilarityKind::kPerformance;
  ClusterAlgorithm algorithm = ClusterAlgorithm::kHierarchical;
  /// Eq. 1 top-k.
  size_t top_k = 5;
  /// For k-means this is k (must be > 0); for hierarchical, as in
  /// ModelClusteringOptions.
  int num_clusters = 0;
  double distance_threshold = 0.085;
  uint64_t seed = 42;
};

/// Clusters the model repository under any similarity x algorithm pair of
/// Tables I and XI. Performance + hierarchical is exactly ClusterModels.
/// The text baseline embeds each model's card; k-means runs in the raw
/// feature space (performance vectors or card embeddings). Every result
/// carries the distance matrix of its similarity (for the silhouette) and
/// ClusterModels' highest-average-accuracy representatives.
StatusOr<ModelClustering> ClusterModelsBaseline(
    const PerformanceMatrix& matrix, const ModelZoo& zoo,
    const BaselineClusteringOptions& options);

}  // namespace tps

#endif  // TPS_BENCH_LIB_BASELINE_CLUSTERING_H_
