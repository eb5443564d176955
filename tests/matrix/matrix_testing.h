#ifndef TPS_TESTS_MATRIX_MATRIX_TESTING_H_
#define TPS_TESTS_MATRIX_MATRIX_TESTING_H_

#include <cmath>
#include <cstddef>

#include "matrix/matrix.h"

namespace tps {

/// Test helper: true if the shapes match and every element pair is within
/// `tolerance`.
inline bool ApproxEquals(const Matrix& a, const Matrix& b,
                         double tolerance = 1e-12) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.data().size(); ++i) {
    if (std::fabs(a.data()[i] - b.data()[i]) > tolerance) return false;
  }
  return true;
}

}  // namespace tps

#endif  // TPS_TESTS_MATRIX_MATRIX_TESTING_H_
