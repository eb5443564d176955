#include "matrix/matrix.h"

#include <gtest/gtest.h>

namespace tps {
namespace {

TEST(MatrixTest, DefaultIsEmpty) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
}

TEST(MatrixTest, ConstructWithFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m.At(r, c), 1.5);
  }
}

TEST(MatrixTest, FromRowsBuildsAndRejectsRagged) {
  auto ok = Matrix::FromRows({{1, 2}, {3, 4}});
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(ok->At(1, 0), 3.0);
  auto ragged = Matrix::FromRows({{1, 2}, {3}});
  EXPECT_TRUE(ragged.status().IsInvalidArgument());
  auto empty = Matrix::FromRows({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(MatrixTest, IdentityHasOnesOnDiagonal) {
  const Matrix id = Matrix::Identity(3);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(id.At(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, RowAndColExtract) {
  auto m = *Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.Row(1), (std::vector<double>{4, 5, 6}));
  EXPECT_EQ(m.Col(2), (std::vector<double>{3, 6}));
}

TEST(MatrixTest, SetRowOverwrites) {
  Matrix m(2, 2);
  m.SetRow(0, {7, 8});
  EXPECT_DOUBLE_EQ(m.At(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 8.0);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 0.0);
}

TEST(MatrixTest, RowAndColMeans) {
  auto m = *Matrix::FromRows({{1, 3}, {5, 7}});
  EXPECT_EQ(m.ColMeans(), (std::vector<double>{3, 5}));
}

TEST(MatrixTest, ApproxEquals) {
  auto a = *Matrix::FromRows({{1.0, 2.0}});
  auto b = *Matrix::FromRows({{1.0 + 1e-13, 2.0}});
  EXPECT_TRUE(a.ApproxEquals(b));
  EXPECT_FALSE(a.ApproxEquals(b, 1e-15));
  EXPECT_FALSE(a.ApproxEquals(Matrix(2, 1)));
}

TEST(MatrixTest, ToStringMentionsShape) {
  Matrix m(2, 2, 0.5);
  EXPECT_NE(m.ToString().find("2 x 2"), std::string::npos);
}

}  // namespace
}  // namespace tps
