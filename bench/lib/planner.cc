#include "bench/lib/planner.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace tps {

std::string ToString(SelectionStrategy strategy) {
  switch (strategy) {
    case SelectionStrategy::kProxyOnly:
      return "proxy-only";
    case SelectionStrategy::kTwoPhase:
      return "two-phase";
    case SelectionStrategy::kSuccessiveHalving:
      return "successive-halving";
    case SelectionStrategy::kBruteForce:
      return "brute-force";
  }
  return "?";
}

CostAwarePlanner::CostAwarePlanner(size_t num_models,
                                   size_t num_scored_clusters,
                                   size_t recall_k, int epochs)
    : num_models_(num_models),
      num_scored_clusters_(num_scored_clusters),
      recall_k_(std::min(recall_k, num_models)),
      epochs_(epochs) {
  TPS_CHECK(num_models_ > 0);
  TPS_CHECK(epochs_ > 0);
}

double CostAwarePlanner::HalvingScheduleCost(size_t candidates, int epochs) {
  double total = 0.0;
  size_t remaining = candidates;
  for (int stage = 0; stage < epochs; ++stage) {
    total += static_cast<double>(remaining);
    if (remaining > 1) remaining = std::max<size_t>(1, remaining / 2);
  }
  return total;
}

StrategyCosts CostAwarePlanner::PredictCosts() const {
  StrategyCosts costs;
  const double recall_cost =
      0.5 * static_cast<double>(num_scored_clusters_);
  costs.proxy_only = recall_cost + static_cast<double>(epochs_);
  costs.two_phase_lower =
      recall_cost + static_cast<double>(recall_k_) +
      static_cast<double>(epochs_ - 1);
  costs.two_phase_upper =
      recall_cost + HalvingScheduleCost(recall_k_, epochs_);
  costs.successive_halving = HalvingScheduleCost(num_models_, epochs_);
  costs.brute_force =
      static_cast<double>(num_models_) * static_cast<double>(epochs_);
  return costs;
}

PlanDecision CostAwarePlanner::Plan(double epoch_budget) const {
  PlanDecision decision;
  decision.costs = PredictCosts();
  const StrategyCosts& costs = decision.costs;

  if (epoch_budget >= costs.brute_force) {
    decision.strategy = SelectionStrategy::kBruteForce;
    decision.predicted_cost = costs.brute_force;
    decision.rationale = strings::Format(
        "budget %.1f covers exhaustive fine-tuning (%.1f epochs)",
        epoch_budget, costs.brute_force);
  } else if (epoch_budget >= costs.successive_halving) {
    decision.strategy = SelectionStrategy::kSuccessiveHalving;
    decision.predicted_cost = costs.successive_halving;
    decision.rationale = strings::Format(
        "budget %.1f covers full-repository halving (%.1f) but not brute "
        "force (%.1f)",
        epoch_budget, costs.successive_halving, costs.brute_force);
  } else if (epoch_budget >= costs.two_phase_upper) {
    decision.strategy = SelectionStrategy::kTwoPhase;
    decision.predicted_cost = costs.two_phase_upper;
    decision.rationale = strings::Format(
        "budget %.1f covers two-phase selection even in the worst case "
        "(%.1f-%.1f epochs)",
        epoch_budget, costs.two_phase_lower, costs.two_phase_upper);
  } else {
    decision.strategy = SelectionStrategy::kProxyOnly;
    decision.predicted_cost = costs.proxy_only;
    decision.rationale = strings::Format(
        "budget %.1f fits only proxy scoring plus one fine-tune (%.1f "
        "epochs); selection quality is not guaranteed",
        epoch_budget, costs.proxy_only);
  }
  return decision;
}

}  // namespace tps
