#include "core/model_clusterer.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string_view>

#include "clustering/distance.h"
#include "clustering/hierarchical.h"
#include "util/logging.h"
#include "util/text_codec.h"

namespace tps {

std::vector<int> ModelClustering::NonSingletonClusters() const {
  std::vector<int> out;
  const std::vector<size_t> sizes = clusters.Sizes();
  for (int c = 0; c < clusters.num_clusters; ++c) {
    if (sizes[static_cast<size_t>(c)] > 1) out.push_back(c);
  }
  return out;
}

std::vector<size_t> PickRepresentatives(const PerformanceMatrix& matrix,
                                        const ClusteringResult& clusters) {
  std::vector<size_t> representatives(
      static_cast<size_t>(clusters.num_clusters), 0);
  for (int c = 0; c < clusters.num_clusters; ++c) {
    const std::vector<size_t> members = clusters.Members(c);
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
    representatives[static_cast<size_t>(c)] = best;
  }
  return representatives;
}

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
  std::vector<std::vector<double>> vectors;
  vectors.reserve(zoo.size());
  for (size_t m = 0; m < zoo.size(); ++m) {
    vectors.push_back(matrix.ModelVector(m));
  }
  TPS_ASSIGN_OR_RETURN(result.distances,
                       PairwiseDistances(vectors, DistanceMetric::kTopKAbsDiff,
                                         options.top_k));

  HierarchicalOptions hopts;
  hopts.linkage = Linkage::kAverage;
  hopts.num_clusters = options.num_clusters;
  hopts.distance_threshold = options.distance_threshold;
  TPS_ASSIGN_OR_RETURN(HierarchicalResult hr,
                       HierarchicalCluster(result.distances, hopts));
  result.clusters = std::move(hr.clustering);
  result.representatives = PickRepresentatives(matrix, result.clusters);
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
  text::TextWriter out;
  out << "tps-model-clustering v2\n"
      << clustering.clusters.assignments.size() << ' '
      << clustering.clusters.num_clusters << '\n';
  out << clustering.options.top_k << ' ' << clustering.options.num_clusters
      << ' ' << text::Shortest{clustering.options.distance_threshold}
      << '\n';
  for (int a : clustering.clusters.assignments) out << a << ' ';
  out << '\n';
  for (size_t r : clustering.representatives) out << r << ' ';
  out << '\n';
  const size_t n = clustering.distances.rows();
  out << n << '\n';
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) out << clustering.distances.At(i, j) << ' ';
    out << '\n';
  }
  return out.Take();
}

StatusOr<ModelClustering> DeserializeClustering(std::string_view text) {
  text::TextCursor in(text);
  std::string_view header;
  in.Line(&header);
  const bool v1 = header == "tps-model-clustering v1";
  if (!v1 && header != "tps-model-clustering v2") {
    return Status::InvalidArgument("bad clustering header");
  }
  size_t num_models = 0;
  int num_clusters = 0;
  // Every assignment takes at least two bytes, so a model count the text
  // cannot hold is malformed (and would otherwise size a huge buffer).
  if (!in.ReadAll(&num_models, &num_clusters) || num_models == 0 ||
      num_models > text.size() || num_clusters <= 0 ||
      num_clusters > static_cast<int>(num_models)) {
    return Status::InvalidArgument("bad clustering dimensions");
  }

  ModelClustering clustering;
  ModelClusteringOptions& options = clustering.options;
  // v1 led with the similarity kind and the algorithm (each 0 or 1) and
  // ended with the k-means seed; they are checked, then dropped.
  int similarity = 0, algorithm = 0;
  uint64_t seed = 0;
  if (!(v1 ? in.ReadAll(&similarity, &algorithm, &options.top_k,
                        &options.num_clusters, &options.distance_threshold,
                        &seed)
           : in.ReadAll(&options.top_k, &options.num_clusters,
                        &options.distance_threshold)) ||
      similarity < 0 || similarity > 1 || algorithm < 0 || algorithm > 1) {
    return Status::InvalidArgument("bad clustering options");
  }

  clustering.clusters.num_clusters = num_clusters;
  clustering.clusters.assignments.resize(num_models);
  for (int& a : clustering.clusters.assignments) {
    if (!in.Read(&a) || a < 0 || a >= num_clusters) {
      return Status::InvalidArgument("bad assignment");
    }
  }
  clustering.representatives.resize(static_cast<size_t>(num_clusters));
  for (size_t& r : clustering.representatives) {
    if (!in.Read(&r) || r >= num_models) {
      return Status::InvalidArgument("bad representative");
    }
  }
  size_t n = 0;
  // n == 0 means the clustering carries no distance matrix (index-derived
  // clusterings over large generated zoos skip the O(n^2) artifact).
  // The n x n distances take at least two bytes each; dividing rather
  // than squaring keeps the bound itself from overflowing.
  if (!in.Read(&n) || (n != num_models && n != 0) ||
      (n != 0 && n > text.size() / n)) {
    return Status::InvalidArgument("bad distance matrix size");
  }
  if (n > 0) {
    clustering.distances = Matrix(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if (!in.Read(&clustering.distances.At(i, j))) {
          return Status::InvalidArgument("truncated distances");
        }
      }
    }
  }
  return clustering;
}

}  // namespace tps
