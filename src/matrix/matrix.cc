#include "matrix/matrix.h"

#include <cmath>
#include <sstream>

#include "util/string_util.h"

namespace tps {

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

StatusOr<Matrix> Matrix::FromRows(
    const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  const size_t cols = rows[0].size();
  for (const auto& row : rows) {
    if (row.size() != cols) {
      return Status::InvalidArgument("ragged rows in Matrix::FromRows");
    }
  }
  Matrix m(rows.size(), cols);
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < cols; ++c) m.At(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m.At(i, i) = 1.0;
  return m;
}

std::vector<double> Matrix::Row(size_t r) const {
  TPS_CHECK(r < rows_);
  return std::vector<double>(data_.begin() + static_cast<ptrdiff_t>(r * cols_),
                             data_.begin() +
                                 static_cast<ptrdiff_t>((r + 1) * cols_));
}

std::vector<double> Matrix::Col(size_t c) const {
  TPS_CHECK(c < cols_);
  std::vector<double> column(rows_);
  for (size_t r = 0; r < rows_; ++r) column[r] = At(r, c);
  return column;
}

void Matrix::SetRow(size_t r, const std::vector<double>& values) {
  TPS_CHECK(r < rows_);
  TPS_CHECK(values.size() == cols_);
  for (size_t c = 0; c < cols_; ++c) At(r, c) = values[c];
}

std::vector<double> Matrix::ColMeans() const {
  std::vector<double> means(cols_, 0.0);
  if (rows_ == 0) return means;
  for (size_t c = 0; c < cols_; ++c) {
    double sum = 0.0;
    for (size_t r = 0; r < rows_; ++r) sum += At(r, c);
    means[c] = sum / static_cast<double>(rows_);
  }
  return means;
}

bool Matrix::ApproxEquals(const Matrix& other, double tolerance) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tolerance) return false;
  }
  return true;
}

std::string Matrix::ToString(int decimals) const {
  std::ostringstream os;
  os << "Matrix(" << rows_ << " x " << cols_ << ")\n";
  for (size_t r = 0; r < rows_; ++r) {
    os << "  [";
    for (size_t c = 0; c < cols_; ++c) {
      if (c > 0) os << ", ";
      os << strings::FormatDouble(At(r, c), decimals);
    }
    os << "]\n";
  }
  return os.str();
}

}  // namespace tps
