#include "bench/lib/planner.h"

#include <gtest/gtest.h>

namespace tps {
namespace {

TEST(PlannerTest, HalvingScheduleCostMatchesPaperNumbers) {
  // The Table V values: 10 models / 5 epochs = 19; 40/5 = 77; 30/4 = 55;
  // 10/4 = 18.
  EXPECT_DOUBLE_EQ(CostAwarePlanner::HalvingScheduleCost(10, 5), 19.0);
  EXPECT_DOUBLE_EQ(CostAwarePlanner::HalvingScheduleCost(40, 5), 77.0);
  EXPECT_DOUBLE_EQ(CostAwarePlanner::HalvingScheduleCost(30, 4), 55.0);
  EXPECT_DOUBLE_EQ(CostAwarePlanner::HalvingScheduleCost(10, 4), 18.0);
  EXPECT_DOUBLE_EQ(CostAwarePlanner::HalvingScheduleCost(1, 5), 5.0);
}

TEST(PlannerTest, CostOrderingIsMonotone) {
  // Paper NLP shape: 40 models, 7 scored clusters, recall 10, 5 epochs.
  CostAwarePlanner planner(40, 7, 10, 5);
  const StrategyCosts costs = planner.PredictCosts();
  EXPECT_LT(costs.proxy_only, costs.two_phase_lower);
  EXPECT_LE(costs.two_phase_lower, costs.two_phase_upper);
  EXPECT_LT(costs.two_phase_upper, costs.successive_halving);
  EXPECT_LT(costs.successive_halving, costs.brute_force);
  EXPECT_DOUBLE_EQ(costs.brute_force, 200.0);
  EXPECT_DOUBLE_EQ(costs.successive_halving, 77.0);
  EXPECT_DOUBLE_EQ(costs.two_phase_upper, 0.5 * 7 + 19.0);
  EXPECT_DOUBLE_EQ(costs.proxy_only, 0.5 * 7 + 5.0);
}

TEST(PlannerTest, PicksMostThoroughAffordableStrategy) {
  CostAwarePlanner planner(40, 7, 10, 5);
  EXPECT_EQ(planner.Plan(1000.0).strategy, SelectionStrategy::kBruteForce);
  EXPECT_EQ(planner.Plan(200.0).strategy, SelectionStrategy::kBruteForce);
  EXPECT_EQ(planner.Plan(199.0).strategy,
            SelectionStrategy::kSuccessiveHalving);
  EXPECT_EQ(planner.Plan(77.0).strategy,
            SelectionStrategy::kSuccessiveHalving);
  EXPECT_EQ(planner.Plan(76.0).strategy, SelectionStrategy::kTwoPhase);
  EXPECT_EQ(planner.Plan(22.5).strategy, SelectionStrategy::kTwoPhase);
  EXPECT_EQ(planner.Plan(22.0).strategy, SelectionStrategy::kProxyOnly);
  EXPECT_EQ(planner.Plan(0.0).strategy, SelectionStrategy::kProxyOnly);
}

TEST(PlannerTest, DecisionCarriesRationaleAndCost) {
  CostAwarePlanner planner(40, 7, 10, 5);
  const PlanDecision decision = planner.Plan(76.0);
  EXPECT_EQ(decision.predicted_cost, decision.costs.two_phase_upper);
  EXPECT_FALSE(decision.rationale.empty());
}

TEST(PlannerTest, RecallKClampedToRepositorySize) {
  CostAwarePlanner planner(5, 2, 100, 3);
  const StrategyCosts costs = planner.PredictCosts();
  // Recall cannot return more models than exist: K = 5.
  EXPECT_DOUBLE_EQ(costs.two_phase_upper,
                   1.0 + CostAwarePlanner::HalvingScheduleCost(5, 3));
}

TEST(PlannerTest, StrategyNames) {
  EXPECT_EQ(ToString(SelectionStrategy::kProxyOnly), "proxy-only");
  EXPECT_EQ(ToString(SelectionStrategy::kBruteForce), "brute-force");
  EXPECT_EQ(ToString(SelectionStrategy::kTwoPhase), "two-phase");
  EXPECT_EQ(ToString(SelectionStrategy::kSuccessiveHalving),
            "successive-halving");
}

class PlannerBudgetSweep : public testing::TestWithParam<double> {};

TEST_P(PlannerBudgetSweep, ChosenStrategyAlwaysFitsOrIsCheapest) {
  CostAwarePlanner planner(40, 7, 10, 5);
  const PlanDecision decision = planner.Plan(GetParam());
  if (decision.strategy != SelectionStrategy::kProxyOnly) {
    EXPECT_LE(decision.predicted_cost, GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, PlannerBudgetSweep,
                         testing::Values(0.0, 10.0, 25.0, 50.0, 80.0, 150.0,
                                         250.0, 1e6));

}  // namespace
}  // namespace tps
