#include "core/fine_selection.h"

#include <algorithm>
#include <bit>

#include "transfer/score_cache.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace tps {

size_t FineTuneCurveMemo::KeyHash::operator()(const Key& key) const {
  // The fingerprint is already a well-mixed hash; fold the rest into it.
  uint64_t h = key.dataset_fingerprint;
  for (uint64_t v : {static_cast<uint64_t>(key.model_index),
                     static_cast<uint64_t>(key.epochs),
                     key.learning_rate_bits, key.seed}) {
    h = (h ^ v) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 29;
  }
  return static_cast<size_t>(h);
}

bool FineTuneCurveMemo::Lookup(const Key& key,
                               std::span<double> curve) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = curves_.find(key);
  if (it == curves_.end()) return false;
  TPS_CHECK(it->second.size() == curve.size());
  std::copy(it->second.begin(), it->second.end(), curve.begin());
  return true;
}

void FineTuneCurveMemo::Insert(const Key& key,
                               std::span<const double> curve) {
  std::lock_guard<std::mutex> lock(mu_);
  if (curves_.size() >= kMaxEntries) curves_.clear();
  curves_.try_emplace(key, curve.begin(), curve.end());
}

size_t FineTuneCurveMemo::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return curves_.size();
}

FineSelectionSelector::FineSelectionSelector(
    const ModelZoo* zoo, const FineTuneSimulator* simulator,
    const ConvergenceTrendMiner* miner, FineSelectionOptions options,
    FineTuneCurveMemo* curve_memo)
    : zoo_(zoo),
      simulator_(simulator),
      miner_(miner),
      options_(options),
      curve_memo_(curve_memo) {
  TPS_CHECK(zoo_ != nullptr);
  TPS_CHECK(simulator_ != nullptr);
  TPS_CHECK(miner_ != nullptr);
  TPS_CHECK(options_.threshold >= 0.0);
}

StatusOr<SelectionOutcome> FineSelectionSelector::Select(
    const std::vector<size_t>& candidates, const Dataset& target,
    const Hyperparams& hp, EpochBudget* budget, ThreadPool* pool,
    MetricsRegistry* metrics, SelectionTrace* trace,
    const CancelToken* cancel) const {
  if (candidates.empty()) {
    return Status::InvalidArgument("fine-selection needs >= 1 candidate");
  }
  for (size_t index : candidates) {
    if (index >= zoo_->size()) {
      return Status::OutOfRange("candidate index out of range");
    }
  }
  if (metrics == nullptr) metrics = MetricsRegistry::Default();
  const PipelineInstruments& instruments = metrics->pipeline();
  TPS_RETURN_NOT_OK(CheckCancel(cancel, "fine selection entry"));
  WallTimer phase_timer;

  // Deterministic full curves; prefixes are consumed stage by stage.
  // Candidate i's curve is curves[i * 2 * epochs, (i + 1) * 2 * epochs):
  // its validation values, then its test values. Each curve is an
  // independent simulated fine-tune (or a memo copy of one), so they fan
  // out over the pool into index-addressed slots. The simulator rejects
  // hp.epochs < 1 before a curve is read.
  const size_t epochs = static_cast<size_t>(std::max(hp.epochs, 0));
  std::vector<double> curves(candidates.size() * 2 * epochs);
  const uint64_t fingerprint =
      curve_memo_ != nullptr ? DatasetFingerprint(target) : 0;
  TPS_RETURN_NOT_OK(StatusParallelFor(
      pool, candidates.size(), [&](size_t i) -> Status {
        TPS_RETURN_NOT_OK(CheckCancel(cancel, "simulator fan-out"));
        const std::span<double> curve =
            std::span<double>(curves).subspan(i * 2 * epochs, 2 * epochs);
        FineTuneCurveMemo::Key key;
        if (curve_memo_ != nullptr) {
          key = {fingerprint, candidates[i], hp.epochs,
                 std::bit_cast<uint64_t>(hp.learning_rate), hp.seed};
          if (curve_memo_->Lookup(key, curve)) {
            instruments.fine_curve_hits.Increment();
            return Status::OK();
          }
        }
        TPS_RETURN_NOT_OK(simulator_->Simulate(zoo_->model(candidates[i]),
                                               target, hp,
                                               curve.first(epochs),
                                               curve.last(epochs)));
        instruments.fine_curve_misses.Increment();
        if (curve_memo_ != nullptr) curve_memo_->Insert(key, curve);
        return Status::OK();
      }));
  const auto val_at = [&](size_t pos, size_t stage) {
    return curves[pos * 2 * epochs + stage];
  };

  SelectionOutcome outcome;
  std::vector<size_t> remaining(candidates.size());
  for (size_t i = 0; i < remaining.size(); ++i) remaining[i] = i;
  // Positions into `candidates` -> zoo indices, for the trace.
  const auto zoo_indices = [&](const std::vector<size_t>& positions) {
    std::vector<size_t> indices;
    indices.reserve(positions.size());
    for (size_t pos : positions) indices.push_back(candidates[pos]);
    return indices;
  };

  for (int stage = 0; stage < hp.epochs; ++stage) {
    TPS_RETURN_NOT_OK(CheckCancel(cancel, "fine selection rung"));
    TraceStage stage_trace;
    stage_trace.stage = stage;
    if (trace != nullptr) stage_trace.entrants = zoo_indices(remaining);
    stage_trace.epochs_charged = static_cast<double>(remaining.size());

    outcome.survivors_per_stage.push_back(remaining.size());
    outcome.training_epochs += static_cast<double>(remaining.size());
    if (budget != nullptr) {
      budget->ChargeTraining(static_cast<double>(remaining.size()));
    }
    instruments.fine_stages.Increment();
    instruments.fine_epoch_steps.Increment(remaining.size());
    if (remaining.size() <= 1) {
      if (trace != nullptr) {
        stage_trace.survivors = zoo_indices(remaining);
        trace->stages.push_back(std::move(stage_trace));
      }
      continue;
    }

    const auto val_at_stage = [&](size_t pos) {
      return val_at(pos, static_cast<size_t>(stage));
    };

    // Predict each survivor's final accuracy from its convergence trends
    // (Eqs. 5-6), read from the miner's per-(model, stage) memo; a cell's
    // first reader mines it. Each survivor is independent, so predictions
    // fan out over the pool. The fine-filter below reads the slots serially.
    std::vector<double> predictions(remaining.size());
    TPS_RETURN_NOT_OK(StatusParallelFor(
        pool, remaining.size(), [&](size_t r) -> Status {
          const size_t pos = remaining[r];
          TPS_ASSIGN_OR_RETURN(
              predictions[r],
              miner_->Predict(candidates[pos], stage, val_at_stage(pos)));
          return Status::OK();
        }));

    // Fine-filter: examine survivors from worst validation upward; drop a
    // model when some better-validating survivor also predicts better by
    // the threshold margin.
    std::vector<size_t> order(remaining.size());  // Positions into remaining.
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return val_at_stage(remaining[a]) < val_at_stage(remaining[b]);
    });
    std::vector<bool> removed(remaining.size(), false);
    for (size_t oi = 0; oi < order.size(); ++oi) {
      const size_t j = order[oi];
      for (size_t ok = oi + 1; ok < order.size(); ++ok) {
        const size_t i = order[ok];
        if (removed[i]) continue;
        const bool better_val =
            val_at_stage(remaining[i]) > val_at_stage(remaining[j]);
        const bool better_pred =
            predictions[i] - predictions[j] >
            options_.threshold * predictions[j];
        if (better_val && better_pred) {
          removed[j] = true;
          if (trace != nullptr) {
            TracePrune prune;
            prune.model_index = candidates[remaining[j]];
            prune.pruned_by = candidates[remaining[i]];
            prune.val = val_at_stage(remaining[j]);
            prune.by_val = val_at_stage(remaining[i]);
            prune.predicted = predictions[j];
            prune.by_predicted = predictions[i];
            prune.margin = predictions[i] - predictions[j] -
                           options_.threshold * predictions[j];
            stage_trace.prunes.push_back(prune);
          }
          break;
        }
      }
    }
    std::vector<size_t> survivors;
    for (size_t r = 0; r < remaining.size(); ++r) {
      if (!removed[r]) survivors.push_back(remaining[r]);
    }
    TPS_CHECK(!survivors.empty());  // The best-val model is never removed.
    instruments.fine_trend_prunes.Increment(remaining.size() -
                                            survivors.size());

    // Halving backstop: ensure at least half the stage's pool is gone.
    const size_t keep = std::max<size_t>(1, remaining.size() / 2);
    if (survivors.size() > keep) {
      std::stable_sort(survivors.begin(), survivors.end(),
                       [&](size_t a, size_t b) {
                         return val_at_stage(a) > val_at_stage(b);
                       });
      if (trace != nullptr) {
        stage_trace.halving_drops = zoo_indices(std::vector<size_t>(
            survivors.begin() + static_cast<ptrdiff_t>(keep),
            survivors.end()));
      }
      instruments.fine_halving_drops.Increment(survivors.size() - keep);
      survivors.resize(keep);
    }
    remaining = std::move(survivors);
    if (trace != nullptr) {
      stage_trace.survivors = zoo_indices(remaining);
      trace->stages.push_back(std::move(stage_trace));
    }
  }

  size_t best = remaining[0];
  for (size_t pos : remaining) {
    if (val_at(pos, epochs - 1) > val_at(best, epochs - 1)) best = pos;
  }
  outcome.selected_model = candidates[best];
  // The final trained epoch's test accuracy, the curve's last value.
  outcome.selected_accuracy = curves[(best + 1) * 2 * epochs - 1];

  const double wall_ms = phase_timer.ElapsedMillis();
  instruments.fine_runs.Increment();
  instruments.fine_wall_us.Record(wall_ms * 1e3);
  if (trace != nullptr) {
    trace->fine_wall_ms = wall_ms;
    trace->selected_model = outcome.selected_model;
    trace->selected_accuracy = outcome.selected_accuracy;
    trace->training_epochs = outcome.training_epochs;
  }
  return outcome;
}

}  // namespace tps
