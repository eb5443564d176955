#include "bench/lib/silhouette.h"

#include <algorithm>
#include <limits>

namespace tps {

StatusOr<double> SilhouetteScore(const Matrix& distances,
                                 const ClusteringResult& clustering) {
  const size_t n = distances.rows();
  if (n == 0 || distances.cols() != n) {
    return Status::InvalidArgument(
        "SilhouetteScore needs a square distance matrix");
  }
  if (clustering.assignments.size() != n) {
    return Status::InvalidArgument(
        "SilhouetteScore assignments/matrix size mismatch");
  }
  const int k = clustering.num_clusters;
  if (k < 2) {
    return Status::InvalidArgument(
        "SilhouetteScore needs at least 2 clusters");
  }
  for (int a : clustering.assignments) {
    if (a < 0 || a >= k) {
      return Status::OutOfRange("cluster assignment out of range");
    }
  }
  const std::vector<size_t> sizes = clustering.Sizes();
  size_t populated = 0;
  for (size_t s : sizes) {
    if (s > 0) ++populated;
  }
  if (populated < 2) {
    return Status::InvalidArgument(
        "SilhouetteScore needs at least 2 populated clusters");
  }

  double total = 0.0;
  std::vector<double> sum_to_cluster(static_cast<size_t>(k));
  for (size_t i = 0; i < n; ++i) {
    const size_t own = static_cast<size_t>(clustering.assignments[i]);
    if (sizes[own] <= 1) continue;  // Singleton: s(i) = 0.

    std::fill(sum_to_cluster.begin(), sum_to_cluster.end(), 0.0);
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      sum_to_cluster[static_cast<size_t>(clustering.assignments[j])] +=
          distances.At(i, j);
    }
    const double a =
        sum_to_cluster[own] / static_cast<double>(sizes[own] - 1);
    double b = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < static_cast<size_t>(k); ++c) {
      if (c == own || sizes[c] == 0) continue;
      b = std::min(b, sum_to_cluster[c] / static_cast<double>(sizes[c]));
    }
    const double denom = std::max(a, b);
    if (denom > 0.0) total += (b - a) / denom;
  }
  return total / static_cast<double>(n);
}

}  // namespace tps
