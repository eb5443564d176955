#ifndef TPS_CORE_FINE_SELECTION_H_
#define TPS_CORE_FINE_SELECTION_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/cancellation.h"
#include "core/convergence_trend.h"
#include "core/selection.h"
#include "core/selection_trace.h"
#include "data/dataset.h"
#include "model/zoo.h"
#include "sim/epoch_budget.h"
#include "sim/finetune_simulator.h"
#include "sim/hyperparams.h"
#include "util/metrics.h"
#include "util/statusor.h"
#include "util/thread_pool.h"

namespace tps {

struct FineSelectionOptions {
  /// Fine-filter threshold (Table IV): model j is removed only when some
  /// model i has better validation accuracy AND
  /// pred_i - pred_j > threshold * pred_j. 0.0 is the paper's default.
  double threshold = 0.0;
};

/// Bounded memo of simulated fine-tune curves ("Threading model" in
/// DESIGN.md). A curve is a pure function of (model, target, hyperparams),
/// so a hit is bit-identical to re-running the simulator. Keyed by value —
/// DatasetFingerprint(target), the model's zoo index, and hp's epochs,
/// learning rate (by bits) and seed — never by a Dataset address, since
/// callers pass temporary datasets. Zoo indices only name models within
/// one zoo, so a memo must serve a single (zoo, simulator) pair:
/// TwoPhaseSelector owns one per artifact version, beside its trend memo.
/// At kMaxEntries the memo is cleared before the next insert, which keeps
/// the hit path free of LRU bookkeeping. Thread-safe.
class FineTuneCurveMemo {
 public:
  /// Entry cap. The benchmark's serving mixes read about 120 (target,
  /// model) pairs, so a clear is rare.
  static constexpr size_t kMaxEntries = 4096;

  struct Key {
    uint64_t dataset_fingerprint = 0;
    size_t model_index = 0;
    int epochs = 0;
    uint64_t learning_rate_bits = 0;
    uint64_t seed = 0;

    bool operator==(const Key&) const = default;
  };

  /// Copies the memoized curve of `key` (its epochs validation values, then
  /// its epochs test values) into `curve` and returns true; false on a miss.
  bool Lookup(const Key& key, std::span<double> curve) const;
  /// Stores `curve` under `key`, clearing the memo first when it is full.
  /// A key already present keeps its curve (both are the same bits).
  /// Returns the entry count after the insert (at most kMaxEntries).
  size_t Insert(const Key& key, std::span<const double> curve);

 private:
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  mutable std::mutex mu_;
  std::unordered_map<Key, std::vector<double>, KeyHash> curves_;
};

/// The paper's fine-selection strategy (Algorithm 1): successive halving
/// augmented with convergence-trend prediction. At each stage every
/// survivor trains one epoch; then
///   1. each survivor's final accuracy is predicted by matching its current
///      validation accuracy to the model's mined convergence trends
///      (Eqs. 5-6);
///   2. fine-filter: walking from the worst validation score upward, a
///      model is dropped if some better-validating model also has a
///      better prediction by the threshold margin;
///   3. halving backstop: the pool is cut to floor(n/2) by validation if
///      fine-filter removed fewer than half.
/// At least half the pool is filtered per stage, so cost is at most
/// successive halving's and usually far less.
class FineSelectionSelector {
 public:
  /// Pointers must outlive this object. `curve_memo` (may be null)
  /// memoizes the simulated curves across Select calls; it must only ever
  /// see this zoo and simulator.
  FineSelectionSelector(const ModelZoo* zoo,
                        const FineTuneSimulator* simulator,
                        const ConvergenceTrendMiner* miner,
                        FineSelectionOptions options = FineSelectionOptions(),
                        FineTuneCurveMemo* curve_memo = nullptr);

  /// Runs the selection over `candidates` (zoo indices, which must also be
  /// valid row indices of the miner's performance matrix). Charges training
  /// epochs to `budget` (may be null).
  ///
  /// Each candidate's full curve is read from the memo or, on a miss,
  /// simulated and stored; `fine.curve_hits` and `fine.curve_misses` count
  /// the two (every simulator run is a miss, memo or not).
  ///
  /// When `pool` is non-null, the per-candidate curves (memo reads or
  /// simulator runs) and per-survivor trend predictions run concurrently
  /// on the pool; every task writes an index-addressed slot and the
  /// fine-filter / halving step stays serial, so the outcome and the
  /// budget ledger are bit-identical to the serial run.
  ///
  /// Observability (never affects the result — see
  /// tests/core/metrics_inertness_test.cc): `metrics` receives rung/prune
  /// counters (nullptr -> MetricsRegistry::Default()); when `trace` is
  /// non-null every rung — entrants, each trend-based prune with its
  /// predicted-vs-threshold margin, halving drops, survivors — is appended
  /// to trace->stages.
  /// `cancel` (may be null) is polled at entry, inside the simulator
  /// fan-out, and at the top of every rung; an expired token yields
  /// DeadlineExceeded, never a partial outcome.
  StatusOr<SelectionOutcome> Select(const std::vector<size_t>& candidates,
                                    const Dataset& target,
                                    const Hyperparams& hp,
                                    EpochBudget* budget,
                                    ThreadPool* pool = nullptr,
                                    MetricsRegistry* metrics = nullptr,
                                    SelectionTrace* trace = nullptr,
                                    const CancelToken* cancel = nullptr) const;

  const FineSelectionOptions& options() const { return options_; }

 private:
  const ModelZoo* zoo_;
  const FineTuneSimulator* simulator_;
  const ConvergenceTrendMiner* miner_;
  FineSelectionOptions options_;
  FineTuneCurveMemo* curve_memo_;
};

}  // namespace tps

#endif  // TPS_CORE_FINE_SELECTION_H_
