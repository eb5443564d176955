#ifndef TPS_TESTS_CORE_REFERENCE_MATRIX_TEXT_H_
#define TPS_TESTS_CORE_REFERENCE_MATRIX_TEXT_H_

#include <string>

#include "core/performance_matrix.h"

namespace tps {

/// Test-only oracle: the performance-matrix text format written through
/// std::ostringstream at precision 17 (integers by operator<<, doubles as
/// %.17g). PerformanceMatrix::Serialize writes the same bytes with
/// std::to_chars and must match it exactly.
std::string ReferenceSerializeMatrix(const PerformanceMatrix& matrix);

}  // namespace tps

#endif  // TPS_TESTS_CORE_REFERENCE_MATRIX_TEXT_H_
