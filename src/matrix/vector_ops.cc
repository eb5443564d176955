#include "matrix/vector_ops.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace tps {
namespace vec {

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  TPS_CHECK(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double Norm(const std::vector<double>& a) { return std::sqrt(Dot(a, a)); }

double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b) {
  TPS_CHECK(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b) {
  TPS_CHECK(a.size() == b.size());
  const double na = Norm(a);
  const double nb = Norm(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(a, b) / (na * nb);
}

std::vector<double> Add(const std::vector<double>& a,
                        const std::vector<double>& b) {
  TPS_CHECK(a.size() == b.size());
  std::vector<double> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

std::vector<double> Scale(const std::vector<double>& a, double s) {
  std::vector<double> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

std::vector<double> AbsDiff(const std::vector<double>& a,
                            const std::vector<double>& b) {
  TPS_CHECK(a.size() == b.size());
  std::vector<double> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = std::fabs(a[i] - b[i]);
  return out;
}

double MeanOfTopK(std::vector<double> values, size_t k) {
  return MeanOfTopKInPlace(values.data(), values.size(), k);
}

void NormalizeInPlace(std::vector<double>& a) {
  const double norm = Norm(a);
  if (norm == 0.0) return;
  for (double& v : a) v /= norm;
}

std::vector<double> MinMaxNormalize(const std::vector<double>& values) {
  std::vector<double> out(values.size(), 0.5);
  if (values.empty()) return out;
  const double lo = *std::min_element(values.begin(), values.end());
  const double hi = *std::max_element(values.begin(), values.end());
  if (hi <= lo) return out;
  for (size_t i = 0; i < values.size(); ++i) {
    out[i] = (values[i] - lo) / (hi - lo);
  }
  return out;
}

void SoftmaxInPlace(double* values, size_t n) {
  if (n == 0) return;
  const double max_logit = *std::max_element(values, values + n);
  double denom = 0.0;
  for (size_t i = 0; i < n; ++i) {
    values[i] = std::exp(values[i] - max_logit);
    denom += values[i];
  }
  for (size_t i = 0; i < n; ++i) values[i] /= denom;
}

double MeanOfTopKInPlace(double* values, size_t n, size_t k) {
  if (n == 0) return 0.0;
  k = std::clamp<size_t>(k, 1, n);
  std::partial_sort(values, values + static_cast<ptrdiff_t>(k), values + n,
                    std::greater<double>());
  double sum = 0.0;
  for (size_t i = 0; i < k; ++i) sum += values[i];
  return sum / static_cast<double>(k);
}

void AbsDiffInto(const double* a, const double* b, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = std::fabs(a[i] - b[i]);
}

}  // namespace vec
}  // namespace tps
