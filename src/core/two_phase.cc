#include "core/two_phase.h"

#include "recall/recall_backend.h"
#include "util/logging.h"

namespace tps {

TwoPhaseSelector::TwoPhaseSelector(const ModelZoo* zoo,
                                   const PerformanceMatrix* matrix,
                                   const ModelClustering* clustering,
                                   const FineTuneSimulator* simulator)
    : zoo_(zoo),
      matrix_(matrix),
      simulator_(simulator),
      recall_(zoo, matrix, clustering) {
  TPS_CHECK(simulator_ != nullptr);
}

StatusOr<TwoPhaseReport> TwoPhaseSelector::Select(
    const Dataset& target, const TwoPhaseOptions& options) const {
  return Select(target, options,
                Hyperparams::DefaultsFor(target.spec().domain));
}

StatusOr<TwoPhaseReport> TwoPhaseSelector::Select(
    const Dataset& target, const TwoPhaseOptions& options,
    const Hyperparams& hp) const {
  if (options.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (options.num_threads == 1) return Select(target, options, hp, nullptr);
  // One pool for the whole call, shared by both phases. Never more
  // workers than the widest fan-out (all models scored directly).
  ThreadPool pool(ThreadPool::ClampThreads(options.num_threads,
                                           zoo_->size()));
  return Select(target, options, hp, &pool);
}

StatusOr<TwoPhaseReport> TwoPhaseSelector::Select(
    const Dataset& target, const TwoPhaseOptions& options,
    const Hyperparams& hp, ThreadPool* pool) const {
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

  // Phase 1: coarse recall (charges 0.5 epoch-equivalents per proxy).
  // A non-null pluggable backend takes over the whole phase; the default
  // null path is the paper's cluster-representative proxy recall,
  // untouched (the representative backend delegates right back here, so
  // the two routes are bit-identical).
  if (options.recall.backend != nullptr) {
    TPS_ASSIGN_OR_RETURN(
        report.recall,
        options.recall.backend->Recall(target, options.recall,
                                       &report.budget, pool, metrics, trace,
                                       options.cancel));
  } else {
    TPS_ASSIGN_OR_RETURN(report.recall,
                         recall_.Recall(target, options.recall, &report.budget,
                                        pool, metrics, trace, options.cancel));
  }
  const std::vector<size_t> candidates =
      report.recall.TopModels(options.recall.top_k_models);
  if (candidates.empty()) {
    return Status::Internal("coarse recall returned no candidates");
  }

  // Phase 2: fine selection over the recalled candidates, on the same
  // pool.
  ConvergenceTrendMiner miner(matrix_, options.trends);
  FineSelectionSelector fine(zoo_, simulator_, &miner,
                             options.fine_selection);
  TPS_ASSIGN_OR_RETURN(report.selection,
                       fine.Select(candidates, target, hp, &report.budget,
                                   pool, metrics, trace, options.cancel));
  metrics->counter("two_phase.runs").Increment();
  if (trace != nullptr) trace->total_epochs = report.budget.total_epochs();
  return report;
}

}  // namespace tps
