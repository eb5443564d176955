#ifndef TPS_CORE_TWO_PHASE_H_
#define TPS_CORE_TWO_PHASE_H_

#include "core/cancellation.h"
#include "core/coarse_recall.h"
#include "core/convergence_trend.h"
#include "core/fine_selection.h"
#include "core/model_clusterer.h"
#include "core/performance_matrix.h"
#include "core/selection.h"
#include "core/selection_trace.h"
#include "data/dataset.h"
#include "model/zoo.h"
#include "sim/epoch_budget.h"
#include "sim/finetune_simulator.h"
#include "sim/hyperparams.h"
#include "util/metrics.h"
#include "util/statusor.h"

namespace tps {

struct TwoPhaseOptions {
  RecallOptions recall;
  FineSelectionOptions fine_selection;
  /// Worker threads for the online pipeline. 1 (the default) runs fully
  /// serial; > 1 fans the proxy forward passes and per-survivor epoch
  /// steps over one shared ThreadPool. Output is bit-identical for every
  /// value (see "Threading model" in DESIGN.md). Values < 1 are an error.
  int num_threads = 1;
  /// Observability sinks ("Observability" in DESIGN.md). Neither affects
  /// the selection result in any way — tests/core/metrics_inertness_test.cc
  /// proves the report is bit-identical with them on, off, or disabled.
  ///
  /// Metrics sink for both phases. nullptr (the default) reports to
  /// MetricsRegistry::Default(); pass a registry constructed with
  /// enabled=false to make every recording a no-op.
  MetricsRegistry* metrics = nullptr;
  /// When non-null, one full SelectionTrace (recall scores, recalled set,
  /// per-rung survivors and prunes, epoch totals) is recorded into it per
  /// Select call. The trace is cleared first, so it can be reused.
  SelectionTrace* trace = nullptr;
  /// Cooperative cancellation / deadline token ("Serving" in DESIGN.md).
  /// Both phases poll it at phase entry, before every proxy/simulator
  /// fan-out, and at each fine-selection rung; once it expires Select
  /// returns a DeadlineExceeded Status and no partial result. nullptr (the
  /// default) never cancels.
  const CancelToken* cancel = nullptr;
};

/// End-to-end report: who was recalled, who won, and what it cost.
struct TwoPhaseReport {
  RecallResult recall;
  SelectionOutcome selection;
  /// Full cost ledger: training epochs + 0.5-epoch proxy inferences.
  EpochBudget budget;
};

/// The complete framework: offline artifacts (performance matrix + model
/// clustering) wired to the online coarse-recall -> fine-selection
/// pipeline.
///
///   TwoPhaseSelector selector(&zoo, &matrix, &clustering, &simulator);
///   TPS_ASSIGN_OR_RETURN(TwoPhaseReport report,
///                        selector.Select(target, options));
///
/// All pointers must outlive the selector. The selector builds its
/// CoarseRecall (and with it the exact recall index over `clustering`) and
/// its ConvergenceTrendMiner once, at construction, and shares them across
/// Select calls: each convergence trend is mined at most once per selector,
/// i.e. once per artifact version when serving.
class TwoPhaseSelector {
 public:
  TwoPhaseSelector(const ModelZoo* zoo, const PerformanceMatrix* matrix,
                   const ModelClustering* clustering,
                   const FineTuneSimulator* simulator,
                   TrendMinerOptions trends = TrendMinerOptions());

  /// Runs both phases on `target` with per-domain default hyperparameters
  /// (5 epochs NLP / 4 epochs CV, lr 3e-5).
  StatusOr<TwoPhaseReport> Select(const Dataset& target,
                                  const TwoPhaseOptions& options) const;

  /// As above with explicit hyperparameters. When options.num_threads > 1
  /// a pool of that size is created for the call and shared by both
  /// phases.
  StatusOr<TwoPhaseReport> Select(const Dataset& target,
                                  const TwoPhaseOptions& options,
                                  const Hyperparams& hp) const;

  /// As above on a caller-owned pool (shared across Select calls, e.g. by
  /// a server handling many targets). `pool` may be null for serial;
  /// options.num_threads is ignored on this overload.
  StatusOr<TwoPhaseReport> Select(const Dataset& target,
                                  const TwoPhaseOptions& options,
                                  const Hyperparams& hp,
                                  ThreadPool* pool) const;

  /// As above with phase 1 run by `recall` (e.g. a learned backend from
  /// src/recall/, or this selector's own coarse_recall()). The backend
  /// must rank the same zoo this selector was built over.
  StatusOr<TwoPhaseReport> Select(const Dataset& target,
                                  const TwoPhaseOptions& options,
                                  const Hyperparams& hp, ThreadPool* pool,
                                  const recall::RecallBackend& recall) const;

  /// The paper's coarse recall over this selector's artifacts: the phase 1
  /// every overload without a backend runs.
  const CoarseRecall& coarse_recall() const { return recall_; }

 private:
  const ModelZoo* zoo_;
  const FineTuneSimulator* simulator_;
  CoarseRecall recall_;
  ConvergenceTrendMiner miner_;
};

}  // namespace tps

#endif  // TPS_CORE_TWO_PHASE_H_
