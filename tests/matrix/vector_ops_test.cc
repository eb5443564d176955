#include "matrix/vector_ops.h"

#include <cmath>

#include <gtest/gtest.h>

namespace tps {
namespace vec {
namespace {

TEST(VectorOpsTest, DotAndNorms) {
  const std::vector<double> a = {1, 2, 3};
  const std::vector<double> b = {4, -5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 12.0);
  EXPECT_DOUBLE_EQ(Norm({3, 4}), 5.0);
}

TEST(VectorOpsTest, EuclideanDistance) {
  EXPECT_DOUBLE_EQ(EuclideanDistance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance({1, 1}, {1, 1}), 0.0);
}

TEST(VectorOpsTest, CosineSimilarityKnownCases) {
  EXPECT_DOUBLE_EQ(CosineSimilarity({1, 0}, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity({1, 0}, {0, 1}), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity({1, 0}, {-1, 0}), -1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity({0, 0}, {1, 0}), 0.0);  // Zero vector.
}

TEST(VectorOpsTest, Arithmetic) {
  EXPECT_EQ(Add({1, 2}, {3, 4}), (std::vector<double>{4, 6}));
  EXPECT_EQ(Scale({1, -2}, 3.0), (std::vector<double>{3, -6}));
  EXPECT_EQ(AbsDiff({1, 5}, {4, 2}), (std::vector<double>{3, 3}));
}

TEST(VectorOpsTest, MeanOfTopK) {
  const std::vector<double> v = {0.1, 0.9, 0.5, 0.7};
  EXPECT_DOUBLE_EQ(MeanOfTopK(v, 1), 0.9);
  EXPECT_DOUBLE_EQ(MeanOfTopK(v, 2), 0.8);
  EXPECT_DOUBLE_EQ(MeanOfTopK(v, 4), 0.55);
  // k larger than size clamps to size; k = 0 clamps to 1.
  EXPECT_DOUBLE_EQ(MeanOfTopK(v, 100), 0.55);
  EXPECT_DOUBLE_EQ(MeanOfTopK(v, 0), 0.9);
  EXPECT_DOUBLE_EQ(MeanOfTopK({}, 3), 0.0);
}

TEST(VectorOpsTest, NormalizeInPlace) {
  std::vector<double> v = {3, 4};
  NormalizeInPlace(v);
  EXPECT_DOUBLE_EQ(v[0], 0.6);
  EXPECT_DOUBLE_EQ(v[1], 0.8);
  std::vector<double> zero = {0, 0};
  NormalizeInPlace(zero);  // No-op, no NaN.
  EXPECT_DOUBLE_EQ(zero[0], 0.0);
}

TEST(VectorOpsTest, SoftmaxSumsToOneAndOrders) {
  const std::vector<double> probs = Softmax({1.0, 2.0, 3.0});
  EXPECT_NEAR(probs[0] + probs[1] + probs[2], 1.0, 1e-12);
  EXPECT_LT(probs[0], probs[1]);
  EXPECT_LT(probs[1], probs[2]);
}

TEST(VectorOpsTest, SoftmaxIsShiftInvariantAndStable) {
  const std::vector<double> a = Softmax({1.0, 2.0});
  const std::vector<double> b = Softmax({1001.0, 1002.0});
  EXPECT_NEAR(a[0], b[0], 1e-12);
  EXPECT_FALSE(std::isnan(b[0]));
  EXPECT_TRUE(Softmax({}).empty());
}

TEST(VectorOpsTest, SoftmaxUniformForEqualLogits) {
  const std::vector<double> probs = Softmax({5.0, 5.0, 5.0, 5.0});
  for (double p : probs) EXPECT_NEAR(p, 0.25, 1e-12);
}

TEST(VectorOpsTest, MinMaxNormalize) {
  EXPECT_EQ(MinMaxNormalize({2.0, 4.0, 3.0}),
            (std::vector<double>{0.0, 1.0, 0.5}));
  EXPECT_EQ(MinMaxNormalize({7.0, 7.0}), (std::vector<double>{0.5, 0.5}));
  EXPECT_TRUE(MinMaxNormalize({}).empty());
  EXPECT_EQ(MinMaxNormalize({-1.0}), (std::vector<double>{0.5}));

  // The one NaN rule: a NaN entry maps to NaN and leaves the others'
  // range alone...
  const double nan = std::nan("");
  const std::vector<double> inner = MinMaxNormalize({1.0, nan, 3.0});
  ASSERT_EQ(inner.size(), 3u);
  EXPECT_EQ(inner[0], 0.0);
  EXPECT_TRUE(std::isnan(inner[1]));
  EXPECT_EQ(inner[2], 1.0);
  // ...but a NaN first entry bounds the range, so every entry is NaN.
  for (double v : MinMaxNormalize({nan, 1.0, 3.0})) {
    EXPECT_TRUE(std::isnan(v));
  }
  for (double v : MinMaxNormalize({nan})) EXPECT_TRUE(std::isnan(v));
}

}  // namespace
}  // namespace vec
}  // namespace tps
