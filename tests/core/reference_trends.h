#ifndef TPS_TESTS_CORE_REFERENCE_TRENDS_H_
#define TPS_TESTS_CORE_REFERENCE_TRENDS_H_

#include <vector>

#include "core/convergence_trend.h"
#include "core/performance_matrix.h"
#include "util/statusor.h"

namespace tps {

/// Test-only oracle: convergence-trend mining (Section IV.C) as a direct,
/// serial computation with no memo. Clusters the benchmark datasets by the
/// model's validation accuracy at `stage` (clamped per dataset to its last
/// epoch) with KMeans1D into min(num_trends, #datasets) trends, drops empty
/// trends and sorts by ascending mean_val. Fails with OutOfRange,
/// InvalidArgument or FailedPrecondition on a bad model, a negative stage
/// or a matrix without datasets. ConvergenceTrendMiner's memoized table
/// must reproduce it bit for bit.
StatusOr<std::vector<ConvergenceTrend>> ReferenceMineTrends(
    const PerformanceMatrix& matrix, const TrendMinerOptions& options,
    size_t model_index, int stage);

}  // namespace tps

#endif  // TPS_TESTS_CORE_REFERENCE_TRENDS_H_
