#include "core/two_phase.h"

#include "util/logging.h"

namespace tps {

TwoPhaseSelector::TwoPhaseSelector(const ModelZoo* zoo,
                                   const PerformanceMatrix* matrix,
                                   const ModelClustering* clustering,
                                   const FineTuneSimulator* simulator,
                                   TrendMinerOptions trends)
    : zoo_(zoo),
      simulator_(simulator),
      recall_(zoo, matrix, clustering),
      miner_(matrix, trends) {
  TPS_CHECK(simulator_ != nullptr);
}

StatusOr<TwoPhaseReport> TwoPhaseSelector::Select(
    const Dataset& target, const TwoPhaseOptions& options) const {
  return Select(target, options,
                Hyperparams::DefaultsFor(target.spec().domain));
}

StatusOr<TwoPhaseReport> TwoPhaseSelector::Select(
    const Dataset& target, const TwoPhaseOptions& options,
    const Hyperparams& hp, ThreadPool* pool) const {
  return Select(target, options, hp, pool, recall_);
}

StatusOr<TwoPhaseReport> TwoPhaseSelector::Select(
    const Dataset& target, const TwoPhaseOptions& options,
    const Hyperparams& hp, ThreadPool* pool,
    const recall::RecallBackend& recall) const {
  TwoPhaseReport report;
  MetricsRegistry* metrics = options.metrics != nullptr
                                 ? options.metrics
                                 : MetricsRegistry::Default();
  SelectionTrace* trace = options.trace;
  if (trace != nullptr) {
    *trace = SelectionTrace();
    trace->target = target.name();
    trace->domain = ToString(target.spec().domain);
  }

  // Phase 1: recall (charges 0.5 epoch-equivalents per proxy it computes).
  TPS_ASSIGN_OR_RETURN(report.recall,
                       recall.Recall(target, options.recall, &report.budget,
                                     pool, metrics, trace, options.cancel));
  const std::vector<size_t> candidates =
      report.recall.TopModels(options.recall.top_k_models);
  if (candidates.empty()) {
    return Status::Internal("coarse recall returned no candidates");
  }

  // Phase 2: fine selection over the recalled candidates, on the same
  // pool, reading the selector's memoized trends and curves.
  FineSelectionSelector fine(zoo_, simulator_, &miner_,
                             options.fine_selection, &curve_memo_);
  TPS_ASSIGN_OR_RETURN(report.selection,
                       fine.Select(candidates, target, hp, &report.budget,
                                   pool, metrics, trace, options.cancel));
  metrics->pipeline().two_phase_runs.Increment();
  if (trace != nullptr) trace->total_epochs = report.budget.total_epochs();
  return report;
}

}  // namespace tps
