#include "bench/lib/hyperband.h"

#include <numeric>

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "data/registry.h"
#include "model/paper_zoo.h"
#include "util/stats.h"

namespace tps {
namespace {

class HyperbandTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new ModelZoo(*ModelZoo::Create(NlpPaperZooSpecs()));
    registry_ =
        new DatasetRegistry(*DatasetRegistry::CreatePaperInventory());
    simulator_ = new FineTuneSimulator();
    target_ = *registry_->Find("mnli");
  }

  static std::vector<size_t> AllModels() {
    std::vector<size_t> all(zoo_->size());
    std::iota(all.begin(), all.end(), 0);
    return all;
  }

  static ModelZoo* zoo_;
  static DatasetRegistry* registry_;
  static FineTuneSimulator* simulator_;
  static const Dataset* target_;
};

ModelZoo* HyperbandTest::zoo_ = nullptr;
DatasetRegistry* HyperbandTest::registry_ = nullptr;
FineTuneSimulator* HyperbandTest::simulator_ = nullptr;
const Dataset* HyperbandTest::target_ = nullptr;

TEST_F(HyperbandTest, RunsExpectedBracketCount) {
  HyperbandSelector hb(zoo_, simulator_);
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  auto outcome = hb.Select(AllModels(), *target_, hp, nullptr);
  ASSERT_TRUE(outcome.ok());
  // R = 5, eta = 2 -> s_max = 2 -> brackets s = 2, 1, 0.
  ASSERT_EQ(outcome->brackets.size(), 3u);
  EXPECT_EQ(outcome->brackets[0].s, 2);
  EXPECT_EQ(outcome->brackets[2].s, 0);
  // Broad bracket starts with more candidates and shorter initial runs.
  EXPECT_GT(outcome->brackets[0].initial_candidates,
            outcome->brackets[2].initial_candidates);
  EXPECT_LT(outcome->brackets[0].initial_epochs,
            outcome->brackets[2].initial_epochs);
}

TEST_F(HyperbandTest, BudgetAccountingMatchesBrackets) {
  HyperbandSelector hb(zoo_, simulator_);
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  EpochBudget budget;
  auto outcome = *hb.Select(AllModels(), *target_, hp, &budget);
  double bracket_sum = 0.0;
  for (const HyperbandBracket& bracket : outcome.brackets) {
    bracket_sum += bracket.epochs;
  }
  EXPECT_GE(outcome.selection.training_epochs, bracket_sum);
  EXPECT_DOUBLE_EQ(budget.training_epochs(),
                   outcome.selection.training_epochs);
}

TEST_F(HyperbandTest, CheaperThanBruteForce) {
  HyperbandSelector hb(zoo_, simulator_);
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  auto outcome = *hb.Select(AllModels(), *target_, hp, nullptr);
  EXPECT_LT(outcome.selection.training_epochs,
            static_cast<double>(zoo_->size() * hp.epochs));
}

TEST_F(HyperbandTest, WinnerIsBestBracketWinner) {
  HyperbandSelector hb(zoo_, simulator_);
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  auto outcome = *hb.Select(AllModels(), *target_, hp, nullptr);
  double best_val = -1.0;
  size_t best_winner = 0;
  for (const HyperbandBracket& bracket : outcome.brackets) {
    if (bracket.winner_val > best_val) {
      best_val = bracket.winner_val;
      best_winner = bracket.winner;
    }
  }
  EXPECT_EQ(outcome.selection.selected_model, best_winner);
}

TEST_F(HyperbandTest, PicksCompetitiveModelFromRankedCandidates) {
  // Hyperband's broad bracket only examines the front of the candidate
  // list, so the documented contract is recall-style ranked input. Rank by
  // first-epoch validation (information any method may use).
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  std::vector<double> first_val(zoo_->size());
  for (size_t m = 0; m < zoo_->size(); ++m) {
    first_val[m] =
        simulator_->Run(zoo_->model(m), *target_, hp)->val_accuracy[0];
  }
  std::vector<size_t> ranked = stats::ArgSortDescending(first_val);

  HyperbandSelector hb(zoo_, simulator_);
  BruteForceSelector bf(zoo_, simulator_);
  auto hb_outcome = *hb.Select(ranked, *target_, hp, nullptr);
  auto bf_outcome = *bf.Select(AllModels(), *target_, hp, nullptr);
  EXPECT_GE(hb_outcome.selection.selected_accuracy,
            bf_outcome.selected_accuracy - 0.08);
}

TEST_F(HyperbandTest, SingleCandidate) {
  HyperbandSelector hb(zoo_, simulator_);
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  auto outcome = *hb.Select({5}, *target_, hp, nullptr);
  EXPECT_EQ(outcome.selection.selected_model, 5u);
  // The one model trains exactly once to the full budget.
  EXPECT_DOUBLE_EQ(outcome.selection.training_epochs,
                   static_cast<double>(hp.epochs));
}

TEST_F(HyperbandTest, InputValidation) {
  HyperbandSelector hb(zoo_, simulator_);
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  EXPECT_TRUE(hb.Select({}, *target_, hp, nullptr)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      hb.Select({999}, *target_, hp, nullptr).status().IsOutOfRange());
}

}  // namespace
}  // namespace tps
