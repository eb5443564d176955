#ifndef TPS_MATRIX_MATRIX_H_
#define TPS_MATRIX_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/statusor.h"

namespace tps {

/// Dense row-major matrix of doubles.
///
/// This is the storage type for the performance matrix Matrix(D, M) and for
/// pairwise-distance matrices used by the clustering algorithms. It is a
/// value type: copyable, movable, and comparable.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix filled with `fill`.
  Matrix(size_t rows, size_t cols, double fill = 0.0);

  /// Builds from nested vectors. Fails if rows are ragged.
  static StatusOr<Matrix> FromRows(
      const std::vector<std::vector<double>>& rows);

  /// Identity matrix of size n.
  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& At(size_t r, size_t c) {
    TPS_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double At(size_t r, size_t c) const {
    TPS_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double& operator()(size_t r, size_t c) { return At(r, c); }
  double operator()(size_t r, size_t c) const { return At(r, c); }

  /// Copy of row r.
  std::vector<double> Row(size_t r) const;

  /// Copy of column c.
  std::vector<double> Col(size_t c) const;

  /// Overwrites row r. `values.size()` must equal cols().
  void SetRow(size_t r, const std::vector<double>& values);

  const std::vector<double>& data() const { return data_; }

  /// Mutable raw row-major storage, for the SoA batch kernels that fill a
  /// matrix through contiguous pointers. Prefer At() everywhere else.
  std::vector<double>& data() { return data_; }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace tps

#endif  // TPS_MATRIX_MATRIX_H_
