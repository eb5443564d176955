#include "core/convergence_trend.h"

#include <gtest/gtest.h>

#include "data/registry.h"
#include "model/paper_zoo.h"
#include "util/test_helpers.h"

namespace tps {
namespace {

class ConvergenceTrendTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new ModelZoo(*ModelZoo::Create(NlpPaperZooSpecs()));
    registry_ =
        new DatasetRegistry(*DatasetRegistry::CreatePaperInventory());
    FineTuneSimulator simulator;
    matrix_ = new PerformanceMatrix(*PerformanceMatrix::Build(
        *zoo_, registry_->Benchmarks(TaskDomain::kNLP), simulator,
        Hyperparams::DefaultsFor(TaskDomain::kNLP)));
  }

  static ModelZoo* zoo_;
  static DatasetRegistry* registry_;
  static PerformanceMatrix* matrix_;
};

ModelZoo* ConvergenceTrendTest::zoo_ = nullptr;
DatasetRegistry* ConvergenceTrendTest::registry_ = nullptr;
PerformanceMatrix* ConvergenceTrendTest::matrix_ = nullptr;

TEST_F(ConvergenceTrendTest, MinesRequestedNumberOfTrends) {
  ConvergenceTrendMiner miner(matrix_);
  auto trends = miner.MineTrends(0, 0);
  ASSERT_TRUE(trends.ok());
  EXPECT_GE(trends->size(), 2u);
  EXPECT_LE(trends->size(), 4u);
}

TEST_F(ConvergenceTrendTest, TrendsPartitionAllDatasets) {
  ConvergenceTrendMiner miner(matrix_);
  auto trends = *miner.MineTrends(3, 1);
  std::vector<bool> seen(matrix_->num_datasets(), false);
  for (const ConvergenceTrend& trend : *&trends) {
    EXPECT_FALSE(trend.dataset_indices.empty());
    for (size_t d : trend.dataset_indices) {
      ASSERT_LT(d, matrix_->num_datasets());
      EXPECT_FALSE(seen[d]);
      seen[d] = true;
    }
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST_F(ConvergenceTrendTest, TrendsSortedByMeanVal) {
  ConvergenceTrendMiner miner(matrix_);
  auto trends = *miner.MineTrends(5, 0);
  for (size_t x = 1; x < trends.size(); ++x) {
    EXPECT_LE(trends[x - 1].mean_val, trends[x].mean_val);
  }
}

TEST_F(ConvergenceTrendTest, TrendMeansMatchMembers) {
  ConvergenceTrendMiner miner(matrix_);
  const size_t model = 7;
  const int stage = 0;
  auto trends = *miner.MineTrends(model, stage);
  for (const ConvergenceTrend& trend : trends) {
    double val_sum = 0.0, test_sum = 0.0;
    for (size_t d : trend.dataset_indices) {
      val_sum += matrix_->ValAtStage(d, model, stage);
      test_sum += RunAt(*matrix_, d, model).final_test();
    }
    const double n = static_cast<double>(trend.dataset_indices.size());
    EXPECT_NEAR(trend.mean_val, val_sum / n, 1e-12);
    EXPECT_NEAR(trend.mean_final_test, test_sum / n, 1e-12);
  }
}

TEST_F(ConvergenceTrendTest, MatchPicksNearestMeanVal) {
  std::vector<ConvergenceTrend> trends(3);
  trends[0].mean_val = 0.3;
  trends[0].mean_final_test = 0.35;
  trends[1].mean_val = 0.6;
  trends[1].mean_final_test = 0.65;
  trends[2].mean_val = 0.9;
  trends[2].mean_final_test = 0.92;
  EXPECT_EQ(ConvergenceTrendMiner::MatchTrend(trends, 0.31), 0u);
  EXPECT_EQ(ConvergenceTrendMiner::MatchTrend(trends, 0.58), 1u);
  EXPECT_EQ(ConvergenceTrendMiner::MatchTrend(trends, 1.2), 2u);
  EXPECT_DOUBLE_EQ(ConvergenceTrendMiner::PredictFinal(trends, 0.31), 0.35);
  EXPECT_DOUBLE_EQ(ConvergenceTrendMiner::PredictFinal(trends, 0.95), 0.92);
}

TEST_F(ConvergenceTrendTest, MatchTieBreaksToLowerIndex) {
  std::vector<ConvergenceTrend> trends(2);
  trends[0].mean_val = 0.4;
  trends[1].mean_val = 0.6;
  EXPECT_EQ(ConvergenceTrendMiner::MatchTrend(trends, 0.5), 0u);
}

TEST_F(ConvergenceTrendTest, LaterStageShiftsTrendMeansUp) {
  // Validation accuracy rises with training, so trend means at stage 3
  // should on average exceed stage 0's.
  ConvergenceTrendMiner miner(matrix_);
  auto early = *miner.MineTrends(2, 0);
  auto late = *miner.MineTrends(2, 3);
  double early_mean = 0.0, late_mean = 0.0;
  for (const auto& t : early) early_mean += t.mean_val;
  for (const auto& t : late) late_mean += t.mean_val;
  EXPECT_GT(late_mean / static_cast<double>(late.size()),
            early_mean / static_cast<double>(early.size()));
}

TEST_F(ConvergenceTrendTest, StageBeyondCurveLengthClampsInsteadOfFailing) {
  ConvergenceTrendMiner miner(matrix_);
  auto trends = miner.MineTrends(0, 50);
  EXPECT_TRUE(trends.ok());
}

TEST_F(ConvergenceTrendTest, InputValidation) {
  ConvergenceTrendMiner miner(matrix_);
  EXPECT_TRUE(miner.MineTrends(999, 0).status().IsOutOfRange());
  EXPECT_TRUE(miner.MineTrends(0, -1).status().IsInvalidArgument());
}

TEST_F(ConvergenceTrendTest, CustomTrendCount) {
  TrendMinerOptions options;
  options.num_trends = 2;
  ConvergenceTrendMiner miner(matrix_, options);
  auto trends = *miner.MineTrends(0, 0);
  EXPECT_LE(trends.size(), 2u);
}

}  // namespace
}  // namespace tps
