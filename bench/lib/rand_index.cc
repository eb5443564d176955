#include "bench/lib/rand_index.h"

namespace tps {

namespace {

Status ValidatePair(const ClusteringResult& a, const ClusteringResult& b) {
  if (a.assignments.size() != b.assignments.size()) {
    return Status::InvalidArgument("clusterings cover different item counts");
  }
  if (a.assignments.size() < 2) {
    return Status::InvalidArgument("Rand index needs at least 2 items");
  }
  return Status::OK();
}

double PairsOf(double n) { return n * (n - 1.0) / 2.0; }

}  // namespace

StatusOr<double> RandIndex(const ClusteringResult& a,
                           const ClusteringResult& b) {
  TPS_RETURN_NOT_OK(ValidatePair(a, b));
  const size_t n = a.assignments.size();
  double agree = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const bool same_a = a.assignments[i] == a.assignments[j];
      const bool same_b = b.assignments[i] == b.assignments[j];
      if (same_a == same_b) agree += 1.0;
    }
  }
  return agree / PairsOf(static_cast<double>(n));
}

StatusOr<double> AdjustedRandIndex(const ClusteringResult& a,
                                   const ClusteringResult& b) {
  TPS_RETURN_NOT_OK(ValidatePair(a, b));
  const size_t n = a.assignments.size();
  const size_t ka = static_cast<size_t>(a.num_clusters);
  const size_t kb = static_cast<size_t>(b.num_clusters);

  // Contingency table.
  std::vector<std::vector<double>> table(ka, std::vector<double>(kb, 0.0));
  std::vector<double> row_sums(ka, 0.0);
  std::vector<double> col_sums(kb, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const size_t ra = static_cast<size_t>(a.assignments[i]);
    const size_t cb = static_cast<size_t>(b.assignments[i]);
    if (ra >= ka || cb >= kb) {
      return Status::OutOfRange("cluster assignment out of range");
    }
    table[ra][cb] += 1.0;
    row_sums[ra] += 1.0;
    col_sums[cb] += 1.0;
  }

  double index = 0.0;
  for (const auto& row : table) {
    for (double cell : row) index += PairsOf(cell);
  }
  double row_pairs = 0.0;
  for (double s : row_sums) row_pairs += PairsOf(s);
  double col_pairs = 0.0;
  for (double s : col_sums) col_pairs += PairsOf(s);
  const double total_pairs = PairsOf(static_cast<double>(n));
  const double expected = row_pairs * col_pairs / total_pairs;
  const double max_index = 0.5 * (row_pairs + col_pairs);
  if (max_index == expected) {
    // Both partitions are all-singletons or one cluster: define as 1 when
    // identical structure, else 0.
    return index == expected ? 1.0 : 0.0;
  }
  return (index - expected) / (max_index - expected);
}

}  // namespace tps
