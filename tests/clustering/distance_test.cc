#include "clustering/distance.h"


#include <cmath>
#include <gtest/gtest.h>

#include "matrix/matrix_testing.h"
#include "util/test_helpers.h"

namespace tps {
namespace {

TEST(DistanceTest, PerformanceSimilarityEq1KnownValues) {
  // |diffs| = {0.1, 0.3, 0.2}; top-2 mean = 0.25; sim = 0.75.
  const std::vector<double> a = {0.8, 0.5, 0.9};
  const std::vector<double> b = {0.7, 0.8, 0.7};
  EXPECT_NEAR(PerformanceSimilarity(a, b, 2), 0.75, 1e-12);
  EXPECT_NEAR(PerformanceSimilarity(a, b, 1), 0.70, 1e-12);
  EXPECT_NEAR(PerformanceSimilarity(a, b, 3), 0.80, 1e-12);
}

TEST(DistanceTest, IdenticalVectorsHaveSimilarityOne) {
  const std::vector<double> v = {0.2, 0.4, 0.6};
  EXPECT_DOUBLE_EQ(PerformanceSimilarity(v, v, 2), 1.0);
}

TEST(DistanceTest, MetricDispatch) {
  const std::vector<double> a = {1.0, 0.0};
  const std::vector<double> b = {0.0, 1.0};
  EXPECT_NEAR(Distance(a, b, DistanceMetric::kEuclidean), std::sqrt(2.0),
              1e-12);
  EXPECT_NEAR(Distance(a, b, DistanceMetric::kCosine), 1.0, 1e-12);
  EXPECT_NEAR(Distance(a, b, DistanceMetric::kTopKAbsDiff, 1), 1.0, 1e-12);
  EXPECT_NEAR(Distance(a, b, DistanceMetric::kTopKAbsDiff, 2), 1.0, 1e-12);
}

TEST(DistanceTest, PairwiseMatrixIsSymmetricWithZeroDiagonal) {
  const std::vector<std::vector<double>> vectors = {
      {0.1, 0.2}, {0.5, 0.1}, {0.9, 0.9}};
  for (auto metric : {DistanceMetric::kEuclidean, DistanceMetric::kCosine,
                      DistanceMetric::kTopKAbsDiff}) {
    auto distances = PairwiseDistances(vectors, metric, 2);
    ASSERT_TRUE(distances.ok());
    EXPECT_EQ(distances->rows(), 3u);
    EXPECT_EQ(distances->cols(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_DOUBLE_EQ(distances->At(i, i), 0.0);
      for (size_t j = 0; j < 3; ++j) {
        EXPECT_DOUBLE_EQ(distances->At(i, j), distances->At(j, i));
      }
    }
  }
}

TEST(DistanceTest, PairwiseFromMatrixRowsMatchesVectors) {
  auto rows = *Matrix::FromRows({{0.1, 0.2}, {0.5, 0.1}});
  auto from_matrix =
      *PairwiseDistances(rows, DistanceMetric::kEuclidean);
  auto from_vectors = *PairwiseDistances(
      std::vector<std::vector<double>>{{0.1, 0.2}, {0.5, 0.1}},
      DistanceMetric::kEuclidean);
  EXPECT_TRUE(ApproxEquals(from_matrix, from_vectors));
}

TEST(DistanceTest, PairwiseRejectsEmptyAndRagged) {
  EXPECT_TRUE(PairwiseDistances(std::vector<std::vector<double>>{},
                                DistanceMetric::kEuclidean)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(PairwiseDistances(
                  std::vector<std::vector<double>>{{1.0}, {1.0, 2.0}},
                  DistanceMetric::kEuclidean)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace tps
