#ifndef TPS_UTIL_STATS_H_
#define TPS_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace tps {

/// Descriptive statistics over small vectors of doubles. All functions on
/// empty input return 0.0 unless documented otherwise; callers that need to
/// distinguish "no data" should check emptiness themselves.
namespace stats {

double Sum(const std::vector<double>& values);
double Mean(const std::vector<double>& values);


/// Index of the maximum element; 0 on empty input. Ties break to the
/// earliest index.
size_t ArgMax(const std::vector<double>& values);

/// Median via sorting a copy.
double Median(std::vector<double> values);

/// Linear-interpolated percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p);

/// Pearson correlation coefficient; 0.0 if either side has zero variance or
/// sizes differ.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

/// Spearman rank correlation; ties get averaged ranks.
double SpearmanCorrelation(const std::vector<double>& x,
                           const std::vector<double>& y);

/// Indices that would sort `values` descending (ties stable by index).
std::vector<size_t> ArgSortDescending(const std::vector<double>& values);

/// Indices that would sort `values` ascending (ties stable by index).
std::vector<size_t> ArgSortAscending(const std::vector<double>& values);

/// Average ranks (1-based) with ties averaged, ascending order.
std::vector<double> Ranks(const std::vector<double>& values);

/// Clamps v into [lo, hi].
double Clamp(double v, double lo, double hi);

}  // namespace stats
}  // namespace tps

#endif  // TPS_UTIL_STATS_H_
