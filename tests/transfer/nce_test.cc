#include "transfer/proxy_scorer.h"

#include <cmath>

#include <gtest/gtest.h>

namespace tps {
namespace {

TEST(NceTest, PerfectMappingScoresZero) {
  auto predictions = *Matrix::FromRows({{0.9, 0.1}, {0.1, 0.9}, {0.8, 0.2}});
  const std::vector<int> labels = {0, 1, 0};
  auto score = NceFromPredictions(predictions, labels, 2);
  ASSERT_TRUE(score.ok());
  EXPECT_NEAR(*score, 0.0, 1e-12);  // -H(Y|Z) with deterministic mapping.
}

TEST(NceTest, SingleSourceLabelGivesLabelEntropy) {
  // All examples map to the same source label, so H(Y|Z) = H(Y).
  auto predictions =
      *Matrix::FromRows({{1.0, 0.0}, {1.0, 0.0}, {1.0, 0.0}, {1.0, 0.0}});
  const std::vector<int> labels = {0, 1, 0, 1};
  auto score = NceFromPredictions(predictions, labels, 2);
  ASSERT_TRUE(score.ok());
  EXPECT_NEAR(*score, std::log(0.5), 1e-12);
}

TEST(NceTest, HandComputedMixedCase) {
  // z=0 gets labels {0, 0, 1}; z=1 gets {1}.
  auto predictions = *Matrix::FromRows(
      {{0.9, 0.1}, {0.8, 0.2}, {0.6, 0.4}, {0.2, 0.8}});
  const std::vector<int> labels = {0, 0, 1, 1};
  // H(Y|Z=0) = -(2/3 log 2/3 + 1/3 log 1/3); P(z=0) = 3/4; H(Y|Z=1) = 0.
  const double h0 = -(2.0 / 3.0 * std::log(2.0 / 3.0) +
                      1.0 / 3.0 * std::log(1.0 / 3.0));
  const double expected = -(0.75 * h0);
  auto score = NceFromPredictions(predictions, labels, 2);
  ASSERT_TRUE(score.ok());
  EXPECT_NEAR(*score, expected, 1e-12);
}

TEST(NceTest, BoundedByLabelEntropy) {
  auto predictions = *Matrix::FromRows(
      {{0.4, 0.6}, {0.6, 0.4}, {0.5, 0.5}, {0.3, 0.7}});
  auto score = NceFromPredictions(predictions, {0, 1, 1, 0}, 2);
  ASSERT_TRUE(score.ok());
  EXPECT_LE(*score, 1e-12);
  EXPECT_GE(*score, std::log(0.5) - 1e-12);
}

TEST(NceTest, InputValidation) {
  auto predictions = *Matrix::FromRows({{0.5, 0.5}});
  EXPECT_TRUE(
      NceFromPredictions(Matrix(), {}, 2).status().IsInvalidArgument());
  EXPECT_TRUE(NceFromPredictions(predictions, {0, 1}, 2)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(NceFromPredictions(predictions, {0}, 1)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      NceFromPredictions(predictions, {3}, 2).status().IsOutOfRange());
}

}  // namespace
}  // namespace tps
