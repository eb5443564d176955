#include "core/model_clusterer.h"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "clustering/distance.h"
#include "clustering/hierarchical.h"
#include "clustering/kmeans.h"
#include "embedding/text_embedder.h"
#include "model/model_card.h"
#include "util/logging.h"

namespace tps {

std::vector<int> ModelClustering::NonSingletonClusters() const {
  std::vector<int> out;
  const std::vector<size_t> sizes = clusters.Sizes();
  for (int c = 0; c < clusters.num_clusters; ++c) {
    if (sizes[static_cast<size_t>(c)] > 1) out.push_back(c);
  }
  return out;
}

std::vector<int> ModelClustering::SingletonClusters() const {
  std::vector<int> out;
  const std::vector<size_t> sizes = clusters.Sizes();
  for (int c = 0; c < clusters.num_clusters; ++c) {
    if (sizes[static_cast<size_t>(c)] == 1) out.push_back(c);
  }
  return out;
}

bool ModelClustering::IsSingletonModel(size_t model_index) const {
  TPS_CHECK(model_index < clusters.assignments.size());
  const int c = clusters.assignments[model_index];
  return clusters.Sizes()[static_cast<size_t>(c)] == 1;
}

int ModelClustering::ClusterOf(size_t model_index) const {
  TPS_CHECK(model_index < clusters.assignments.size());
  return clusters.assignments[model_index];
}

namespace {

StatusOr<Matrix> BuildDistances(const PerformanceMatrix& matrix,
                                const ModelZoo& zoo,
                                const ModelClusteringOptions& options) {
  const size_t n = zoo.size();
  if (options.similarity == ModelSimilarityKind::kPerformance) {
    std::vector<std::vector<double>> vectors;
    vectors.reserve(n);
    for (size_t m = 0; m < n; ++m) vectors.push_back(matrix.ModelVector(m));
    return PairwiseDistances(vectors, DistanceMetric::kTopKAbsDiff,
                             options.top_k);
  }
  // Text-card similarity baseline.
  HashedTextEmbedder embedder;
  std::vector<std::vector<double>> embeddings;
  embeddings.reserve(n);
  for (size_t m = 0; m < n; ++m) {
    embeddings.push_back(embedder.Embed(GenerateModelCard(
        zoo.model(m).spec())));
  }
  return PairwiseDistances(embeddings, DistanceMetric::kCosine);
}

}  // namespace

StatusOr<ModelClustering> ClusterModels(
    const PerformanceMatrix& matrix, const ModelZoo& zoo,
    const ModelClusteringOptions& options) {
  if (zoo.size() != matrix.num_models()) {
    return Status::InvalidArgument(
        "zoo / performance-matrix model count mismatch");
  }
  if (zoo.size() < 2) {
    return Status::InvalidArgument("clustering needs at least 2 models");
  }

  ModelClustering result;
  result.options = options;
  TPS_ASSIGN_OR_RETURN(result.distances,
                       BuildDistances(matrix, zoo, options));

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
    // K-means runs in the raw feature space (performance vectors or card
    // embeddings), not on the distance matrix.
    std::vector<std::vector<double>> features;
    features.reserve(zoo.size());
    if (options.similarity == ModelSimilarityKind::kPerformance) {
      for (size_t m = 0; m < zoo.size(); ++m) {
        features.push_back(matrix.ModelVector(m));
      }
    } else {
      HashedTextEmbedder embedder;
      for (size_t m = 0; m < zoo.size(); ++m) {
        features.push_back(
            embedder.Embed(GenerateModelCard(zoo.model(m).spec())));
      }
    }
    TPS_ASSIGN_OR_RETURN(Matrix points, Matrix::FromRows(features));
    KMeansOptions kopts;
    kopts.num_clusters = options.num_clusters;
    kopts.seed = options.seed;
    TPS_ASSIGN_OR_RETURN(KMeansResult kr, KMeans(points, kopts));
    result.clusters = std::move(kr.clustering);
  }

  // Representative model per cluster: highest average benchmark accuracy.
  result.representatives.assign(
      static_cast<size_t>(result.clusters.num_clusters), 0);
  for (int c = 0; c < result.clusters.num_clusters; ++c) {
    const std::vector<size_t> members = result.clusters.Members(c);
    TPS_CHECK(!members.empty());
    size_t best = members[0];
    double best_acc = matrix.ModelAverageAccuracy(best);
    for (size_t m : members) {
      const double acc = matrix.ModelAverageAccuracy(m);
      if (acc > best_acc) {
        best_acc = acc;
        best = m;
      }
    }
    result.representatives[static_cast<size_t>(c)] = best;
  }
  return result;
}

StatusOr<BruteForceRecallIndex> IndexFromClustering(
    const PerformanceMatrix& matrix, const ModelClustering& clustering) {
  if (matrix.num_models() != clustering.clusters.assignments.size()) {
    return Status::InvalidArgument(
        "matrix / clustering model count mismatch");
  }
  // Vectors, priors, assignments and top-k all come straight from the
  // clustering artifact, and BruteForceRecallIndex re-derives the
  // representatives with the same highest-average-accuracy / first-wins
  // rule as ClusterModels above, so recall through the index reproduces
  // the paper's clustering sweep bit-for-bit.
  return BruteForceRecallIndex::Create(
      matrix.ModelVectors(), matrix.ModelAverageAccuracies(),
      clustering.clusters.assignments,
      static_cast<size_t>(clustering.clusters.num_clusters),
      clustering.options.top_k);
}

StatusOr<ModelClustering> ClusteringFromIndexStructure(
    const IndexStructure& structure) {
  const size_t P = structure.num_partitions();
  if (structure.num_models() == 0 || P == 0) {
    return Status::InvalidArgument("empty index structure");
  }
  ModelClustering clustering;
  clustering.clusters.assignments = structure.assignments;
  clustering.clusters.num_clusters = static_cast<int>(P);
  clustering.representatives.reserve(P);
  for (size_t rep : structure.representatives) {
    if (rep == IndexStructure::kNoSlot) {
      return Status::FailedPrecondition(
          "index has an empty partition; cannot derive a clustering");
    }
    clustering.representatives.push_back(rep);
  }
  // The distance matrix stays empty on purpose: nothing in the recall
  // path reads it, and materializing O(n^2) distances is exactly what a
  // large generated zoo cannot afford.
  clustering.options.similarity = ModelSimilarityKind::kPerformance;
  clustering.options.algorithm = ClusterAlgorithm::kKMeans;
  clustering.options.top_k = structure.similarity_top_k;
  clustering.options.num_clusters = static_cast<int>(P);
  return clustering;
}

std::string FormatClusters(const ModelClustering& clustering,
                           const ModelZoo& zoo, bool include_singletons) {
  std::ostringstream os;
  const std::vector<size_t> sizes = clustering.clusters.Sizes();
  int printed = 0;
  for (int c = 0; c < clustering.clusters.num_clusters; ++c) {
    const size_t size = sizes[static_cast<size_t>(c)];
    if (size <= 1 && !include_singletons) continue;
    os << "C" << ++printed << " (size " << size << "): ";
    bool first = true;
    for (size_t m : clustering.clusters.Members(c)) {
      if (!first) os << ", ";
      os << zoo.model(m).name();
      first = false;
    }
    os << "\n";
  }
  if (!include_singletons) {
    size_t singles = 0;
    for (size_t s : sizes) {
      if (s == 1) ++singles;
    }
    os << "(+ " << singles << " singleton clusters)\n";
  }
  return os.str();
}

std::string SerializeClustering(const ModelClustering& clustering) {
  std::ostringstream out;
  out << "tps-model-clustering v1\n";
  out << clustering.clusters.assignments.size() << " "
      << clustering.clusters.num_clusters << "\n";
  out << static_cast<int>(clustering.options.similarity) << " "
      << static_cast<int>(clustering.options.algorithm) << " "
      << clustering.options.top_k << " " << clustering.options.num_clusters
      << " " << clustering.options.distance_threshold << " "
      << clustering.options.seed << "\n";
  for (int a : clustering.clusters.assignments) out << a << " ";
  out << "\n";
  for (size_t r : clustering.representatives) out << r << " ";
  out << "\n";
  out.precision(17);
  const size_t n = clustering.distances.rows();
  out << n << "\n";
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) out << clustering.distances.At(i, j)
                                       << " ";
    out << "\n";
  }
  return out.str();
}

StatusOr<ModelClustering> DeserializeClustering(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  std::getline(in, header);
  if (header != "tps-model-clustering v1") {
    return Status::InvalidArgument("bad clustering header");
  }
  size_t num_models = 0;
  int num_clusters = 0;
  in >> num_models >> num_clusters;
  // Every assignment takes at least two bytes, so a model count the text
  // cannot hold is malformed (and would otherwise size a huge buffer).
  if (!in || num_models == 0 || num_models > text.size() ||
      num_clusters <= 0 || num_clusters > static_cast<int>(num_models)) {
    return Status::InvalidArgument("bad clustering dimensions");
  }

  ModelClustering clustering;
  int similarity = 0, algorithm = 0;
  in >> similarity >> algorithm >> clustering.options.top_k >>
      clustering.options.num_clusters >>
      clustering.options.distance_threshold >> clustering.options.seed;
  if (!in || similarity < 0 || similarity > 1 || algorithm < 0 ||
      algorithm > 1) {
    return Status::InvalidArgument("bad clustering options");
  }
  clustering.options.similarity =
      static_cast<ModelSimilarityKind>(similarity);
  clustering.options.algorithm = static_cast<ClusterAlgorithm>(algorithm);

  clustering.clusters.num_clusters = num_clusters;
  clustering.clusters.assignments.resize(num_models);
  for (int& a : clustering.clusters.assignments) {
    in >> a;
    if (!in || a < 0 || a >= num_clusters) {
      return Status::InvalidArgument("bad assignment");
    }
  }
  clustering.representatives.resize(static_cast<size_t>(num_clusters));
  for (size_t& r : clustering.representatives) {
    in >> r;
    if (!in || r >= num_models) {
      return Status::InvalidArgument("bad representative");
    }
  }
  size_t n = 0;
  in >> n;
  // n == 0 means the clustering carries no distance matrix (index-derived
  // clusterings over large generated zoos skip the O(n^2) artifact).
  // The n x n distances take at least two bytes each; dividing rather
  // than squaring keeps the bound itself from overflowing.
  if (!in || (n != num_models && n != 0) || (n != 0 && n > text.size() / n)) {
    return Status::InvalidArgument("bad distance matrix size");
  }
  if (n > 0) {
    clustering.distances = Matrix(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) in >> clustering.distances.At(i, j);
    }
    if (!in) return Status::InvalidArgument("truncated distances");
  }
  return clustering;
}

}  // namespace tps
