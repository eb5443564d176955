#include "transfer/proxy_scorer.h"


#include <cmath>
#include <gtest/gtest.h>

#include "util/rng.h"

namespace tps {
namespace {

/// Features with class structure: class c lives near e_c * scale.
Matrix SeparableFeatures(size_t n, int num_classes, double noise,
                         std::vector<int>* labels, uint64_t seed) {
  Rng rng(seed);
  Matrix features(n, static_cast<size_t>(num_classes) + 2);
  labels->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i) % num_classes;
    (*labels)[i] = label;
    for (size_t d = 0; d < features.cols(); ++d) {
      features.At(i, d) = noise * rng.Normal();
    }
    features.At(i, static_cast<size_t>(label)) += 3.0;
  }
  return features;
}

TEST(LogMeTest, SeparableFeaturesBeatNoise) {
  std::vector<int> labels;
  const Matrix good = SeparableFeatures(60, 3, 0.1, &labels, 1);
  auto good_score = LogMeFromFeatures(good, labels, 3);
  ASSERT_TRUE(good_score.ok());

  std::vector<int> noise_labels;
  const Matrix noise = SeparableFeatures(60, 3, 0.1, &noise_labels, 2);
  // Shuffle labels to destroy the feature-label relationship.
  Rng rng(3);
  rng.Shuffle(noise_labels);
  auto noise_score = LogMeFromFeatures(noise, noise_labels, 3);
  ASSERT_TRUE(noise_score.ok());
  EXPECT_GT(*good_score, *noise_score);
}

TEST(LogMeTest, LessNoiseScoresHigher) {
  std::vector<int> labels;
  const Matrix crisp = SeparableFeatures(60, 3, 0.05, &labels, 5);
  const Matrix fuzzy = SeparableFeatures(60, 3, 1.5, &labels, 5);
  EXPECT_GT(*LogMeFromFeatures(crisp, labels, 3),
            *LogMeFromFeatures(fuzzy, labels, 3));
}

TEST(LogMeTest, DeterministicForSameInput) {
  std::vector<int> labels;
  const Matrix features = SeparableFeatures(40, 2, 0.2, &labels, 9);
  EXPECT_DOUBLE_EQ(*LogMeFromFeatures(features, labels, 2),
                   *LogMeFromFeatures(features, labels, 2));
}

TEST(LogMeTest, HandlesConstantFeatureColumnWithoutNan) {
  std::vector<int> labels;
  Matrix features = SeparableFeatures(30, 2, 0.2, &labels, 13);
  for (size_t i = 0; i < features.rows(); ++i) {
    features.At(i, features.cols() - 1) = 1.0;
  }
  auto score = LogMeFromFeatures(features, labels, 2);
  ASSERT_TRUE(score.ok());
  EXPECT_FALSE(std::isnan(*score));
}

TEST(LogMeTest, InputValidation) {
  std::vector<int> labels = {0, 1};
  auto features = *Matrix::FromRows({{1.0}, {2.0}});
  EXPECT_TRUE(
      LogMeFromFeatures(Matrix(), {}, 2).status().IsInvalidArgument());
  EXPECT_TRUE(LogMeFromFeatures(features, {0}, 2)
                  .status()
                  .IsInvalidArgument());  // Size mismatch.
  EXPECT_TRUE(LogMeFromFeatures(features, labels, 1)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      LogMeFromFeatures(features, {0, 7}, 2).status().IsOutOfRange());
}

}  // namespace
}  // namespace tps
