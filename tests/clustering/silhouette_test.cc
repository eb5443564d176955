#include "bench/lib/silhouette.h"

#include <gtest/gtest.h>

#include "clustering/distance.h"
#include "util/rng.h"

namespace tps {
namespace {

Matrix DistancesFor(const std::vector<std::vector<double>>& points) {
  return *PairwiseDistances(points, DistanceMetric::kEuclidean);
}

TEST(SilhouetteTest, TightSeparatedClustersScoreNearOne) {
  const Matrix d = DistancesFor(
      {{0.0}, {0.01}, {0.02}, {10.0}, {10.01}, {10.02}});
  ClusteringResult clustering;
  clustering.assignments = {0, 0, 0, 1, 1, 1};
  clustering.num_clusters = 2;
  auto score = SilhouetteScore(d, clustering);
  ASSERT_TRUE(score.ok());
  EXPECT_GT(*score, 0.99);
}

TEST(SilhouetteTest, WrongAssignmentScoresNegative) {
  const Matrix d = DistancesFor({{0.0}, {0.1}, {10.0}, {10.1}});
  ClusteringResult clustering;
  clustering.assignments = {0, 1, 0, 1};  // Splits both true pairs.
  clustering.num_clusters = 2;
  auto score = SilhouetteScore(d, clustering);
  ASSERT_TRUE(score.ok());
  EXPECT_LT(*score, 0.0);
}

TEST(SilhouetteTest, RandomAssignmentNearZeroOnStructurelessData) {
  Rng rng(7);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 40; ++i) {
    points.push_back({rng.Uniform(), rng.Uniform()});
  }
  ClusteringResult clustering;
  clustering.num_clusters = 4;
  for (int i = 0; i < 40; ++i) {
    clustering.assignments.push_back(
        static_cast<int>(rng.UniformInt(uint64_t{4})));
  }
  auto score = SilhouetteScore(DistancesFor(points), clustering);
  ASSERT_TRUE(score.ok());
  EXPECT_NEAR(*score, 0.0, 0.2);
}

TEST(SilhouetteTest, SingletonClustersContributeZero) {
  const Matrix d = DistancesFor({{0.0}, {0.1}, {5.0}});
  ClusteringResult clustering;
  clustering.assignments = {0, 0, 1};  // Item 2 is a singleton.
  clustering.num_clusters = 2;
  auto score = SilhouetteScore(d, clustering);
  ASSERT_TRUE(score.ok());
  // Items 0,1: a = 0.1, b = ~5; s ~ 0.98 each; singleton contributes 0.
  EXPECT_NEAR(*score, 2.0 * 0.98 / 3.0, 0.02);
}

TEST(SilhouetteTest, InputValidation) {
  const Matrix d = DistancesFor({{0.0}, {1.0}});
  ClusteringResult clustering;
  clustering.assignments = {0, 0};
  clustering.num_clusters = 1;
  EXPECT_TRUE(SilhouetteScore(d, clustering).status().IsInvalidArgument());

  clustering.num_clusters = 2;
  clustering.assignments = {0};  // Size mismatch.
  EXPECT_TRUE(SilhouetteScore(d, clustering).status().IsInvalidArgument());

  clustering.assignments = {0, 5};  // Out of range.
  EXPECT_TRUE(SilhouetteScore(d, clustering).status().IsOutOfRange());

  clustering.assignments = {0, 0};  // Only one populated cluster of 2.
  EXPECT_TRUE(SilhouetteScore(d, clustering).status().IsInvalidArgument());

  EXPECT_TRUE(SilhouetteScore(Matrix(2, 3), clustering)
                  .status()
                  .IsInvalidArgument());
}

class SilhouetteSeparationTest : public testing::TestWithParam<double> {};

TEST_P(SilhouetteSeparationTest, ScoreGrowsWithSeparation) {
  // Property: pulling two blobs apart monotonically raises the silhouette.
  const double gap = GetParam();
  Rng rng(21);
  std::vector<std::vector<double>> points;
  ClusteringResult clustering;
  clustering.num_clusters = 2;
  for (int i = 0; i < 10; ++i) {
    points.push_back({0.5 * rng.Normal()});
    clustering.assignments.push_back(0);
  }
  for (int i = 0; i < 10; ++i) {
    points.push_back({gap + 0.5 * rng.Normal()});
    clustering.assignments.push_back(1);
  }
  auto score = SilhouetteScore(DistancesFor(points), clustering);
  ASSERT_TRUE(score.ok());
  // With gap >= 3 the clustering is real; silhouette should reflect it.
  if (gap >= 3.0) {
    EXPECT_GT(*score, 0.5);
  }
  if (gap >= 8.0) {
    EXPECT_GT(*score, 0.8);
  }
}

INSTANTIATE_TEST_SUITE_P(Gaps, SilhouetteSeparationTest,
                         testing::Values(3.0, 5.0, 8.0, 12.0));

}  // namespace
}  // namespace tps
