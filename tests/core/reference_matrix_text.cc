#include "core/reference_matrix_text.h"

#include <sstream>

namespace tps {

std::string ReferenceSerializeMatrix(const PerformanceMatrix& matrix) {
  std::ostringstream out;
  out << "tps-performance-matrix v1\n";
  out << matrix.num_datasets() << " " << matrix.num_models() << "\n";
  for (const std::string& name : matrix.dataset_names()) out << name << "\n";
  for (const std::string& name : matrix.model_names()) out << name << "\n";
  out.precision(17);
  for (size_t di = 0; di < matrix.num_datasets(); ++di) {
    for (size_t mi = 0; mi < matrix.num_models(); ++mi) {
      const TrainingRun& r = matrix.run(di, mi);
      out << di << " " << mi << " " << r.epochs();
      for (double v : r.val_accuracy) out << " " << v;
      for (double v : r.test_accuracy) out << " " << v;
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace tps
