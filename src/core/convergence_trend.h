#ifndef TPS_CORE_CONVERGENCE_TREND_H_
#define TPS_CORE_CONVERGENCE_TREND_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/performance_matrix.h"
#include "util/status.h"
#include "util/statusor.h"

namespace tps {

/// One convergence trend CT(m)_t[x] of a model: a cluster of benchmark
/// datasets on which the model's training curve looks alike at stage t,
/// summarized by the mean validation accuracy at that stage and the mean
/// final test accuracy.
struct ConvergenceTrend {
  double mean_val = 0.0;
  double mean_final_test = 0.0;
  /// Benchmark dataset indices belonging to this trend.
  std::vector<size_t> dataset_indices;
};

struct TrendMinerOptions {
  /// Number of trend clusters c (the paper groups BERT-base's curves into
  /// ~4 groups, Fig. 4).
  int num_trends = 4;
  uint64_t seed = 7;
};

/// Mines convergence trends from a model's benchmark training curves and
/// predicts final performance from an observed validation accuracy
/// (Section IV.C, Eqs. 5-6).
///
/// Trends are a pure function of (matrix, options, model, stage), so the
/// miner memoizes them: one table cell per (model, stage), with stages
/// clamped to the matrix's longest curve (ValAtStage clamps too, so every
/// later stage has identical trends). A cell is mined on first use under
/// its own std::call_once and read copy-free afterwards; a failed mine is
/// stored in the cell as its Status. The table lives as long as the miner,
/// so a miner built per artifact version (TwoPhaseSelector owns one) mines
/// each cell at most once per version. Thread-safe.
class ConvergenceTrendMiner {
 public:
  /// `matrix` must outlive this object and must not change under it.
  ConvergenceTrendMiner(const PerformanceMatrix* matrix,
                        TrendMinerOptions options = TrendMinerOptions());

  ConvergenceTrendMiner(const ConvergenceTrendMiner&) = delete;
  ConvergenceTrendMiner& operator=(const ConvergenceTrendMiner&) = delete;

  /// Clusters the benchmark datasets by the model's validation accuracy at
  /// 0-based stage `stage` (clamped per dataset to its last epoch) into
  /// min(num_trends, #datasets) trends, sorted by ascending mean_val.
  /// Returns a copy of the memoized cell.
  StatusOr<std::vector<ConvergenceTrend>> MineTrends(size_t model_index,
                                                     int stage) const;

  /// Eqs. 5-6 on the memoized trends of (model, stage): the predicted final
  /// test accuracy for an observed validation accuracy. Copy-free.
  StatusOr<double> Predict(size_t model_index, int stage,
                           double observed_val) const;

  /// Eq. 5: index of the trend whose mean validation accuracy is closest
  /// to `observed_val`. Requires a non-empty trend list.
  static size_t MatchTrend(const std::vector<ConvergenceTrend>& trends,
                           double observed_val);

  /// Eq. 6: predicted final test accuracy = mean final test of the matched
  /// trend. Requires a non-empty trend list.
  static double PredictFinal(const std::vector<ConvergenceTrend>& trends,
                             double observed_val);

  const TrendMinerOptions& options() const { return options_; }

 private:
  struct Cell {
    std::once_flag mined;
    Status status;
    std::vector<ConvergenceTrend> trends;
  };

  /// Validates the arguments and returns the (model, stage) cell, mining
  /// it first if no caller has yet.
  StatusOr<const Cell*> Lookup(size_t model_index, int stage) const;
  /// The k-means mine itself (`stage` already clamped).
  StatusOr<std::vector<ConvergenceTrend>> Mine(size_t model_index,
                                               int stage) const;

  const PerformanceMatrix* matrix_;
  TrendMinerOptions options_;
  /// Length of the matrix's longest curve (>= 1): the table's stage count.
  size_t num_stages_ = 1;
  /// cells_[model_index * num_stages_ + clamped stage].
  std::unique_ptr<Cell[]> cells_;
};

}  // namespace tps

#endif  // TPS_CORE_CONVERGENCE_TREND_H_
