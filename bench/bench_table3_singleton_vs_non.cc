// Reproduces Table III: average benchmark accuracy of models in
// non-singleton vs singleton clusters, and how many per-benchmark best
// models each group contributes. The paper: non-singleton models are both
// better on average (0.67 vs 0.61 NLP; 0.84 vs 0.73 CV) and contribute
// nearly all per-dataset maxima — the justification for scoring only
// non-singleton representatives in coarse-recall.

#include <iostream>

#include "bench/harness.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace tps {
namespace bench {
namespace {

void Report(TaskDomain domain, const char* title, TablePrinter& table) {
  World world = ExitIfError(BuildWorld(domain), "build world");
  const ClusteringResult& clusters = world.clustering->clusters;
  const std::vector<size_t> sizes = clusters.Sizes();
  const auto is_singleton = [&](size_t m) {
    return sizes[static_cast<size_t>(clusters.assignments[m])] == 1;
  };

  std::vector<double> non_singleton_acc;
  std::vector<double> singleton_acc;
  for (size_t m = 0; m < world.zoo->size(); ++m) {
    const double acc = world.matrix->ModelAverageAccuracy(m);
    if (is_singleton(m)) {
      singleton_acc.push_back(acc);
    } else {
      non_singleton_acc.push_back(acc);
    }
  }

  size_t non_singleton_best = 0;
  size_t singleton_best = 0;
  for (size_t d = 0; d < world.matrix->num_datasets(); ++d) {
    const size_t best = stats::ArgMax(world.matrix->accuracy().Row(d));
    if (is_singleton(best)) {
      ++singleton_best;
    } else {
      ++non_singleton_best;
    }
  }

  table.AddRow({title, "non-singleton",
                strings::FormatDouble(stats::Mean(non_singleton_acc), 2),
                std::to_string(non_singleton_best)});
  table.AddRow({title, "singleton",
                strings::FormatDouble(stats::Mean(singleton_acc), 2),
                std::to_string(singleton_best)});
}

}  // namespace
}  // namespace bench
}  // namespace tps

int main() {
  using namespace tps;
  using namespace tps::bench;
  std::cout << "=== Table III: singleton vs non-singleton cluster "
               "performance ===\n";
  TablePrinter table(
      {"task type", "cluster type", "avg(acc)", "no. maximum(acc)"});
  Report(TaskDomain::kNLP, "NLP", table);
  Report(TaskDomain::kCV, "CV", table);
  table.Print(std::cout);
  return 0;
}
