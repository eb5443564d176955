#include "clustering/distance.h"

#include "matrix/vector_ops.h"

namespace tps {

double PerformanceSimilarity(const std::vector<double>& a,
                             const std::vector<double>& b, size_t top_k) {
  return 1.0 - vec::MeanOfTopK(vec::AbsDiff(a, b), top_k);
}

double PerformanceSimilarity(const double* a, const double* b, size_t dims,
                             size_t top_k, std::vector<double>& scratch) {
  scratch.resize(dims);
  vec::AbsDiffInto(a, b, dims, scratch.data());
  return 1.0 - vec::MeanOfTopKInPlace(scratch.data(), dims, top_k);
}

double Distance(const std::vector<double>& a, const std::vector<double>& b,
                DistanceMetric metric, size_t top_k) {
  switch (metric) {
    case DistanceMetric::kEuclidean:
      return vec::EuclideanDistance(a, b);
    case DistanceMetric::kCosine:
      return 1.0 - vec::CosineSimilarity(a, b);
    case DistanceMetric::kTopKAbsDiff:
      return 1.0 - PerformanceSimilarity(a, b, top_k);
  }
  return 0.0;
}

StatusOr<Matrix> PairwiseDistances(
    const std::vector<std::vector<double>>& vectors, DistanceMetric metric,
    size_t top_k) {
  if (vectors.empty()) {
    return Status::InvalidArgument("PairwiseDistances needs >= 1 vector");
  }
  const size_t dims = vectors[0].size();
  for (const auto& v : vectors) {
    if (v.size() != dims) {
      return Status::InvalidArgument("PairwiseDistances got ragged vectors");
    }
  }
  const size_t n = vectors.size();
  Matrix distances(n, n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double d = Distance(vectors[i], vectors[j], metric, top_k);
      distances.At(i, j) = d;
      distances.At(j, i) = d;
    }
  }
  return distances;
}

}  // namespace tps
