#include "matrix/eigen.h"

#include <cmath>

#include <gtest/gtest.h>

#include "matrix/matrix_testing.h"
#include "util/rng.h"

namespace tps {
namespace {

TEST(EigenTest, IdentityHasUnitEigenvalues) {
  auto result = SymmetricEigen(Matrix::Identity(4));
  ASSERT_TRUE(result.ok());
  for (double v : result->values) EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(EigenTest, DiagonalMatrixEigenvaluesSortedDescending) {
  auto m = *Matrix::FromRows({{2, 0, 0}, {0, 5, 0}, {0, 0, 3}});
  auto result = SymmetricEigen(m);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->values[0], 5.0, 1e-12);
  EXPECT_NEAR(result->values[1], 3.0, 1e-12);
  EXPECT_NEAR(result->values[2], 2.0, 1e-12);
}

TEST(EigenTest, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  auto m = *Matrix::FromRows({{2, 1}, {1, 2}});
  auto result = SymmetricEigen(m);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->values[0], 3.0, 1e-10);
  EXPECT_NEAR(result->values[1], 1.0, 1e-10);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::fabs(result->vectors.At(0, 0)), inv_sqrt2, 1e-10);
  EXPECT_NEAR(std::fabs(result->vectors.At(1, 0)), inv_sqrt2, 1e-10);
}

TEST(EigenTest, RejectsNonSquare) {
  EXPECT_TRUE(SymmetricEigen(Matrix(2, 3)).status().IsInvalidArgument());
}

TEST(EigenTest, RejectsAsymmetric) {
  auto m = *Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_TRUE(SymmetricEigen(m).status().IsInvalidArgument());
}

class EigenPropertyTest : public testing::TestWithParam<int> {};

TEST_P(EigenPropertyTest, ReconstructsMatrixAndOrthonormalVectors) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 1000 + 5);
  // Random symmetric matrix A = B + B^T.
  Matrix a(static_cast<size_t>(n), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      const double v = rng.Uniform(-1.0, 1.0);
      a.At(static_cast<size_t>(i), static_cast<size_t>(j)) = v;
      a.At(static_cast<size_t>(j), static_cast<size_t>(i)) = v;
    }
  }
  auto result = SymmetricEigen(a);
  ASSERT_TRUE(result.ok());

  // V diag(lambda) V^T == A.
  const Matrix& v = result->vectors;
  Matrix reconstructed(a.rows(), a.cols(), 0.0);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      double sum = 0.0;
      for (size_t k = 0; k < a.rows(); ++k) {
        sum += v.At(i, k) * result->values[k] * v.At(j, k);
      }
      reconstructed.At(i, j) = sum;
    }
  }
  EXPECT_TRUE(ApproxEquals(a, reconstructed, 1e-8));

  // Columns are orthonormal: V^T V == I.
  for (size_t c1 = 0; c1 < a.cols(); ++c1) {
    for (size_t c2 = c1; c2 < a.cols(); ++c2) {
      double dot = 0.0;
      for (size_t r = 0; r < a.rows(); ++r) {
        dot += v.At(r, c1) * v.At(r, c2);
      }
      EXPECT_NEAR(dot, c1 == c2 ? 1.0 : 0.0, 1e-9);
    }
  }

  // Trace equals the eigenvalue sum.
  double trace = 0.0, eigen_sum = 0.0;
  for (size_t i = 0; i < a.rows(); ++i) trace += a.At(i, i);
  for (double lambda : result->values) eigen_sum += lambda;
  EXPECT_NEAR(trace, eigen_sum, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenPropertyTest,
                         testing::Values(1, 2, 3, 5, 8, 16, 32));

}  // namespace
}  // namespace tps
