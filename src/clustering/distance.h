#ifndef TPS_CLUSTERING_DISTANCE_H_
#define TPS_CLUSTERING_DISTANCE_H_

#include <cstddef>
#include <vector>

#include "matrix/matrix.h"
#include "util/statusor.h"

namespace tps {

/// Distance metrics over row vectors.
enum class DistanceMetric {
  kEuclidean,
  /// 1 - cosine similarity (in [0, 2]).
  kCosine,
  /// The paper's Eq. 1 distance: mean of the top-k largest absolute
  /// per-coordinate differences (so similarity = 1 - distance).
  kTopKAbsDiff,
};

/// The paper's Eq. 1 model similarity:
///   sim(m1, m2) = 1 - avg(top_k |vec(m1) - vec(m2)|).
/// `top_k` is clamped to [1, dims]. Both vectors must have equal size.
double PerformanceSimilarity(const std::vector<double>& a,
                             const std::vector<double>& b, size_t top_k);

/// Batch form of PerformanceSimilarity for hot loops that compare one
/// vector against many: callers pass raw equal-length rows plus a reusable
/// scratch buffer, so the per-pair |a-b| temporary is allocated once per
/// sweep instead of once per pair. Bit-identical to the vector overload
/// (same AbsDiff then mean-of-top-k arithmetic; the differential kernel
/// harness pins it).
double PerformanceSimilarity(const double* a, const double* b, size_t dims,
                             size_t top_k, std::vector<double>& scratch);

/// Distance between two vectors under `metric` (`top_k` applies only to
/// kTopKAbsDiff).
double Distance(const std::vector<double>& a, const std::vector<double>& b,
                DistanceMetric metric, size_t top_k = 5);

/// Symmetric pairwise-distance matrix from explicit vectors (one per item).
/// Fails if vectors are ragged or empty.
StatusOr<Matrix> PairwiseDistances(
    const std::vector<std::vector<double>>& vectors, DistanceMetric metric,
    size_t top_k = 5);

}  // namespace tps

#endif  // TPS_CLUSTERING_DISTANCE_H_
