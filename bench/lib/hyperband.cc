#include "bench/lib/hyperband.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace tps {

HyperbandSelector::HyperbandSelector(const ModelZoo* zoo,
                                     const FineTuneSimulator* simulator,
                                     HyperbandOptions options)
    : zoo_(zoo), simulator_(simulator), options_(options) {
  TPS_CHECK(zoo_ != nullptr);
  TPS_CHECK(simulator_ != nullptr);
  TPS_CHECK(options_.eta >= 2);
}

StatusOr<HyperbandOutcome> HyperbandSelector::Select(
    const std::vector<size_t>& candidates, const Dataset& target,
    const Hyperparams& hp, EpochBudget* budget) const {
  if (candidates.empty()) {
    return Status::InvalidArgument("hyperband needs >= 1 candidate");
  }

  // Deterministic full curves, fetched once per candidate.
  std::vector<TrainingRun> runs;
  runs.reserve(candidates.size());
  for (size_t index : candidates) {
    if (index >= zoo_->size()) {
      return Status::OutOfRange("candidate index out of range");
    }
    TPS_ASSIGN_OR_RETURN(TrainingRun run,
                         simulator_->Run(zoo_->model(index), target, hp));
    runs.push_back(std::move(run));
  }

  const double eta = static_cast<double>(options_.eta);
  const int max_resource = hp.epochs;
  const int s_max = static_cast<int>(
      std::floor(std::log(static_cast<double>(max_resource)) /
                 std::log(eta)));

  HyperbandOutcome outcome;
  double total_epochs = 0.0;
  // Epochs already trained per candidate position (shared across brackets:
  // a model resumed in a later bracket does not repay its earlier epochs).
  std::vector<int> trained(candidates.size(), 0);

  size_t best_position = 0;
  double best_val = -1.0;

  for (int s = s_max; s >= 0; --s) {
    HyperbandBracket bracket;
    bracket.s = s;
    // Hyperband sizing: n = ceil((s_max + 1) / (s + 1) * eta^s),
    // r = R * eta^-s (at least one epoch).
    const size_t n = std::min<size_t>(
        candidates.size(),
        static_cast<size_t>(std::ceil(
            static_cast<double>(s_max + 1) / static_cast<double>(s + 1) *
            std::pow(eta, s))));
    const int r =
        std::max(1, static_cast<int>(static_cast<double>(max_resource) *
                                     std::pow(eta, -s)));
    bracket.initial_candidates = n;
    bracket.initial_epochs = r;

    // Positions into candidates/runs; the broad brackets take the front of
    // the (recall-ranked) candidate list.
    std::vector<size_t> pool(n);
    for (size_t i = 0; i < n; ++i) pool[i] = i;

    for (int i = 0; i <= s; ++i) {
      const int resource = std::min(
          max_resource,
          static_cast<int>(static_cast<double>(r) * std::pow(eta, i)));
      // Train every pool member up to `resource` epochs (incremental).
      for (size_t position : pool) {
        if (trained[position] < resource) {
          bracket.epochs += resource - trained[position];
          trained[position] = resource;
        }
      }
      const auto val_at = [&](size_t position) {
        return runs[position]
            .val_accuracy[static_cast<size_t>(resource - 1)];
      };
      if (i < s && pool.size() > 1) {
        const size_t keep = std::max<size_t>(
            1, pool.size() / static_cast<size_t>(options_.eta));
        std::stable_sort(pool.begin(), pool.end(),
                         [&](size_t a, size_t b) {
                           return val_at(a) > val_at(b);
                         });
        pool.resize(keep);
      }
      if (i == s) {
        size_t winner = pool[0];
        for (size_t position : pool) {
          if (val_at(position) > val_at(winner)) winner = position;
        }
        bracket.winner = candidates[winner];
        bracket.winner_val = val_at(winner);
        if (bracket.winner_val > best_val) {
          best_val = bracket.winner_val;
          best_position = winner;
        }
      }
    }
    total_epochs += bracket.epochs;
    outcome.brackets.push_back(bracket);
    outcome.selection.survivors_per_stage.push_back(n);
  }

  // Finish training the overall winner to the full budget so its accuracy
  // is comparable with the other strategies.
  if (trained[best_position] < max_resource) {
    total_epochs += max_resource - trained[best_position];
    trained[best_position] = max_resource;
  }

  outcome.selection.selected_model = candidates[best_position];
  outcome.selection.selected_accuracy = runs[best_position].final_test();
  outcome.selection.training_epochs = total_epochs;
  if (budget != nullptr) budget->ChargeTraining(total_epochs);
  return outcome;
}

}  // namespace tps
