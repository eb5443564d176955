#include "bench/lib/baseline_clustering.h"

#include <cctype>
#include <cmath>
#include <unordered_map>

#include "clustering/distance.h"
#include "clustering/hierarchical.h"
#include "clustering/kmeans.h"
#include "data/latent.h"
#include "matrix/vector_ops.h"
#include "model/model_card.h"

namespace tps {

HashedTextEmbedder::HashedTextEmbedder(size_t dims) : dims_(dims) {}

std::vector<std::string> HashedTextEmbedder::Tokenize(
    const std::string& text) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      current += static_cast<char>(
          std::tolower(static_cast<unsigned char>(c)));
    } else if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

std::vector<double> HashedTextEmbedder::Embed(const std::string& text) const {
  std::vector<double> embedding(dims_, 0.0);
  std::unordered_map<std::string, size_t> counts;
  const std::vector<std::string> tokens = Tokenize(text);
  for (const std::string& token : tokens) ++counts[token];
  for (const auto& [token, count] : counts) {
    const uint64_t hash = latent::HashString(token);
    const size_t bucket = hash % dims_;
    // Signed feature hashing reduces collision bias.
    const double sign = (hash >> 63) ? 1.0 : -1.0;
    // Sub-linear term weighting: repeated tokens contribute less per
    // occurrence.
    embedding[bucket] += sign * std::sqrt(static_cast<double>(count));
  }
  vec::NormalizeInPlace(embedding);
  return embedding;
}

double HashedTextEmbedder::Similarity(const std::string& a,
                                      const std::string& b) const {
  return vec::CosineSimilarity(Embed(a), Embed(b));
}

StatusOr<ModelClustering> ClusterModelsBaseline(
    const PerformanceMatrix& matrix, const ModelZoo& zoo,
    const BaselineClusteringOptions& options) {
  ModelClusteringOptions shipped;
  shipped.top_k = options.top_k;
  shipped.num_clusters = options.num_clusters;
  shipped.distance_threshold = options.distance_threshold;
  const bool by_performance =
      options.similarity == ModelSimilarityKind::kPerformance;
  if (by_performance && options.algorithm == ClusterAlgorithm::kHierarchical) {
    return ClusterModels(matrix, zoo, shipped);
  }
  if (zoo.size() != matrix.num_models()) {
    return Status::InvalidArgument(
        "zoo / performance-matrix model count mismatch");
  }
  if (zoo.size() < 2) {
    return Status::InvalidArgument("clustering needs at least 2 models");
  }

  // The feature space: performance vectors or card embeddings.
  std::vector<std::vector<double>> features;
  features.reserve(zoo.size());
  HashedTextEmbedder embedder;
  for (size_t m = 0; m < zoo.size(); ++m) {
    features.push_back(
        by_performance
            ? matrix.ModelVector(m)
            : embedder.Embed(GenerateModelCard(zoo.model(m).spec())));
  }

  ModelClustering result;
  result.options = shipped;
  if (by_performance) {
    TPS_ASSIGN_OR_RETURN(result.distances,
                         PairwiseDistances(features,
                                           DistanceMetric::kTopKAbsDiff,
                                           options.top_k));
  } else {
    TPS_ASSIGN_OR_RETURN(result.distances,
                         PairwiseDistances(features, DistanceMetric::kCosine));
  }

  if (options.algorithm == ClusterAlgorithm::kHierarchical) {
    HierarchicalOptions hopts;
    hopts.linkage = Linkage::kAverage;
    hopts.num_clusters = options.num_clusters;
    hopts.distance_threshold = options.distance_threshold;
    TPS_ASSIGN_OR_RETURN(HierarchicalResult hr,
                         HierarchicalCluster(result.distances, hopts));
    result.clusters = std::move(hr.clustering);
  } else {
    if (options.num_clusters < 1) {
      return Status::InvalidArgument("k-means needs num_clusters >= 1");
    }
    TPS_ASSIGN_OR_RETURN(Matrix points, Matrix::FromRows(features));
    KMeansOptions kopts;
    kopts.num_clusters = options.num_clusters;
    kopts.seed = options.seed;
    TPS_ASSIGN_OR_RETURN(KMeansResult kr, KMeans(points, kopts));
    result.clusters = std::move(kr.clustering);
  }
  result.representatives = PickRepresentatives(matrix, result.clusters);
  return result;
}

}  // namespace tps
