#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace tps {
namespace stats {

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return Sum(values) / static_cast<double>(values.size());
}

double Min(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return *std::min_element(values.begin(), values.end());
}

double Max(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return *std::max_element(values.begin(), values.end());
}

size_t ArgMax(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return static_cast<size_t>(
      std::max_element(values.begin(), values.end()) - values.begin());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  p = Clamp(p, 0.0, 100.0);
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = static_cast<size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  if (x.size() != y.size() || x.empty()) return 0.0;
  const double mx = Mean(x);
  const double my = Mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> Ranks(const std::vector<double>& values) {
  const size_t n = values.size();
  std::vector<size_t> order = ArgSortAscending(values);
  std::vector<double> ranks(n, 0.0);
  size_t i = 0;
  while (i < n) {
    // Find the run of tied values and assign each the average rank.
    size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    const double avg_rank = 0.5 * (static_cast<double>(i) +
                                   static_cast<double>(j)) + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = avg_rank;
    i = j + 1;
  }
  return ranks;
}

double SpearmanCorrelation(const std::vector<double>& x,
                           const std::vector<double>& y) {
  if (x.size() != y.size() || x.empty()) return 0.0;
  return PearsonCorrelation(Ranks(x), Ranks(y));
}

std::vector<size_t> ArgSortDescending(const std::vector<double>& values) {
  std::vector<size_t> indices(values.size());
  std::iota(indices.begin(), indices.end(), 0);
  std::stable_sort(indices.begin(), indices.end(),
                   [&](size_t a, size_t b) { return values[a] > values[b]; });
  return indices;
}

std::vector<size_t> ArgSortAscending(const std::vector<double>& values) {
  std::vector<size_t> indices(values.size());
  std::iota(indices.begin(), indices.end(), 0);
  std::stable_sort(indices.begin(), indices.end(),
                   [&](size_t a, size_t b) { return values[a] < values[b]; });
  return indices;
}

double Clamp(double v, double lo, double hi) {
  return std::max(lo, std::min(hi, v));
}

}  // namespace stats
}  // namespace tps
