#include "transfer/proxy_scorer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "model/pretrained_model.h"

namespace tps {
namespace {

TEST(LeepTest, PerfectOneToOneMappingScoresNearZero) {
  // Source label z == target label y, fully confident: EEP predicts the
  // right label with probability 1, so LEEP = log(1) = 0.
  auto predictions = *Matrix::FromRows({{1, 0}, {0, 1}, {1, 0}, {0, 1}});
  const std::vector<int> labels = {0, 1, 0, 1};
  auto score = LeepFromPredictions(predictions, labels, 2);
  ASSERT_TRUE(score.ok());
  EXPECT_NEAR(*score, 0.0, 1e-9);
}

TEST(LeepTest, UniformPredictionsScoreLabelEntropy) {
  // Uninformative source predictions: P(y|z) collapses to the label
  // marginal, so LEEP = log(1/2) for balanced binary labels.
  auto predictions = *Matrix::FromRows(
      {{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}});
  const std::vector<int> labels = {0, 1, 0, 1};
  auto score = LeepFromPredictions(predictions, labels, 2);
  ASSERT_TRUE(score.ok());
  EXPECT_NEAR(*score, std::log(0.5), 1e-9);
}

TEST(LeepTest, HandComputedThreeExampleCase) {
  // n=3, two source labels, two target labels; verify against a by-hand
  // evaluation of the LEEP formula.
  auto predictions =
      *Matrix::FromRows({{0.9, 0.1}, {0.2, 0.8}, {0.6, 0.4}});
  const std::vector<int> labels = {0, 1, 0};
  // Joint P(y,z): y0 gets rows 0 and 2, y1 gets row 1, all / 3.
  // P(0,0)=1.5/3=0.5  P(0,1)=0.5/3
  // P(1,0)=0.2/3      P(1,1)=0.8/3
  // P(z=0)=1.7/3, P(z=1)=1.3/3
  // P(0|0)=1.5/1.7, P(0|1)=0.5/1.3, P(1|0)=0.2/1.7, P(1|1)=0.8/1.3
  const double p00 = 1.5 / 1.7, p01 = 0.5 / 1.3;
  const double p10 = 0.2 / 1.7, p11 = 0.8 / 1.3;
  const double eep0 = p00 * 0.9 + p01 * 0.1;
  const double eep1 = p10 * 0.2 + p11 * 0.8;
  const double eep2 = p00 * 0.6 + p01 * 0.4;
  const double expected =
      (std::log(eep0) + std::log(eep1) + std::log(eep2)) / 3.0;
  auto score = LeepFromPredictions(predictions, labels, 2);
  ASSERT_TRUE(score.ok());
  EXPECT_NEAR(*score, expected, 1e-12);
}

TEST(LeepTest, ScoreIsNonPositive) {
  auto predictions = *Matrix::FromRows({{0.7, 0.3}, {0.4, 0.6}});
  auto score = LeepFromPredictions(predictions, {0, 1}, 2);
  ASSERT_TRUE(score.ok());
  EXPECT_LE(*score, 1e-12);
}

TEST(LeepTest, MoreInformativePredictionsScoreHigher) {
  auto sharp = *Matrix::FromRows(
      {{0.95, 0.05}, {0.05, 0.95}, {0.95, 0.05}, {0.05, 0.95}});
  auto mushy = *Matrix::FromRows(
      {{0.6, 0.4}, {0.4, 0.6}, {0.6, 0.4}, {0.4, 0.6}});
  const std::vector<int> labels = {0, 1, 0, 1};
  EXPECT_GT(*LeepFromPredictions(sharp, labels, 2),
            *LeepFromPredictions(mushy, labels, 2));
}

TEST(LeepTest, InputValidation) {
  auto predictions = *Matrix::FromRows({{0.5, 0.5}});
  EXPECT_TRUE(LeepFromPredictions(Matrix(), {}, 2)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(LeepFromPredictions(predictions, {0, 1}, 2)
                  .status()
                  .IsInvalidArgument());  // Size mismatch.
  EXPECT_TRUE(LeepFromPredictions(predictions, {0}, 1)
                  .status()
                  .IsInvalidArgument());  // Too few labels.
  EXPECT_TRUE(
      LeepFromPredictions(predictions, {5}, 2).status().IsOutOfRange());
  EXPECT_TRUE(
      LeepFromPredictions(predictions, {-1}, 2).status().IsOutOfRange());
}

TEST(LeepScorerTest, EndToEndOnSimulatedModel) {
  ModelSpec model_spec;
  model_spec.name = "leep/aligned";
  model_spec.capability = 0.7;
  model_spec.pretrain_tags = {"english", "books"};
  model_spec.finetune_tags = {"english", "nli"};
  model_spec.num_source_labels = 3;
  auto aligned = *PretrainedModel::Create(model_spec);

  model_spec.name = "leep/misaligned";
  model_spec.capability = 0.3;
  model_spec.pretrain_tags = {"arabic", "web"};
  model_spec.finetune_tags = {"arabic", "poetry"};
  auto misaligned = *PretrainedModel::Create(model_spec);

  DatasetSpec target_spec;
  target_spec.name = "leep-target";
  target_spec.num_labels = 3;
  target_spec.tags = {"english", "nli"};
  target_spec.num_examples = 120;
  auto target = *Dataset::Create(target_spec);

  auto scorer = MakeProxyScorer("leep");
  ASSERT_TRUE(scorer.ok());
  EXPECT_EQ((*scorer)->name(), "leep");
  auto aligned_score = (*scorer)->Score(aligned, target);
  auto misaligned_score = (*scorer)->Score(misaligned, target);
  ASSERT_TRUE(aligned_score.ok());
  ASSERT_TRUE(misaligned_score.ok());
  EXPECT_GT(*aligned_score, *misaligned_score);
}

}  // namespace
}  // namespace tps
