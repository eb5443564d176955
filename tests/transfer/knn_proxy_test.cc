#include "transfer/proxy_scorer.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace tps {
namespace {

Matrix ClusteredFeatures(size_t n, int num_classes, double noise,
                         std::vector<int>* labels, uint64_t seed) {
  Rng rng(seed);
  Matrix features(n, 4);
  labels->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i) % num_classes;
    (*labels)[i] = label;
    for (size_t d = 0; d < 4; ++d) features.At(i, d) = noise * rng.Normal();
    features.At(i, 0) += 5.0 * label;
  }
  return features;
}

TEST(KnnProxyTest, WellSeparatedClustersScoreHigh) {
  std::vector<int> labels;
  const Matrix features = ClusteredFeatures(60, 3, 0.1, &labels, 1);
  auto acc = KnnLeaveOneOutAccuracy(features, labels, 5);
  ASSERT_TRUE(acc.ok());
  EXPECT_GT(*acc, 0.95);
}

TEST(KnnProxyTest, ShuffledLabelsScoreNearChance) {
  std::vector<int> labels;
  const Matrix features = ClusteredFeatures(90, 3, 0.1, &labels, 2);
  Rng rng(3);
  rng.Shuffle(labels);
  auto acc = KnnLeaveOneOutAccuracy(features, labels, 5);
  ASSERT_TRUE(acc.ok());
  EXPECT_LT(*acc, 0.6);
}

TEST(KnnProxyTest, KEqualsOneUsesNearestNeighbour) {
  // Two interleaved points per class: with k=1, each point's nearest
  // neighbour is its twin, giving perfect accuracy.
  auto features = *Matrix::FromRows({{0.0}, {0.1}, {5.0}, {5.1}});
  const std::vector<int> labels = {0, 0, 1, 1};
  auto acc = KnnLeaveOneOutAccuracy(features, labels, 1);
  ASSERT_TRUE(acc.ok());
  EXPECT_DOUBLE_EQ(*acc, 1.0);
}

TEST(KnnProxyTest, KClampedToAvailableNeighbours) {
  auto features = *Matrix::FromRows({{0.0}, {0.1}, {5.0}});
  const std::vector<int> labels = {0, 0, 1};
  auto acc = KnnLeaveOneOutAccuracy(features, labels, 50);
  ASSERT_TRUE(acc.ok());  // k clamps to n-1 = 2.
}

TEST(KnnProxyTest, InputValidation) {
  auto features = *Matrix::FromRows({{0.0}, {1.0}});
  EXPECT_TRUE(KnnLeaveOneOutAccuracy(*Matrix::FromRows({{0.0}}), {0}, 1)
                  .status()
                  .IsInvalidArgument());  // < 2 examples.
  EXPECT_TRUE(KnnLeaveOneOutAccuracy(features, {0}, 1)
                  .status()
                  .IsInvalidArgument());  // Size mismatch.
  EXPECT_TRUE(KnnLeaveOneOutAccuracy(features, {0, 1}, 0)
                  .status()
                  .IsInvalidArgument());  // k < 1.
}

TEST(ProxyScorerTest, FactoryKnowsAllScorers) {
  for (const char* name : {"leep", "nce", "logme", "knn"}) {
    auto scorer = MakeProxyScorer(name);
    ASSERT_TRUE(scorer.ok()) << name;
    EXPECT_EQ((*scorer)->name(), name);
  }
  EXPECT_TRUE(MakeProxyScorer("bogus").status().IsInvalidArgument());
}

}  // namespace
}  // namespace tps
