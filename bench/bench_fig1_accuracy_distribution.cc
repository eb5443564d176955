// Reproduces Fig. 1: the sorted fine-tuning accuracy of every repository
// model on one NLP target (MNLI) and one CV benchmark task (the CUB birds
// dataset standing in for CC6204-Hackaton-Cub). The paper's point: a few
// models are strong, most are poor, so exhaustive fine-tuning wastes most
// of its budget.

#include <algorithm>
#include <iostream>

#include "bench/harness.h"
#include "core/evaluation.h"
#include "util/stats.h"
#include "util/string_util.h"

namespace tps {
namespace bench {
namespace {

void Report(TaskDomain domain, const char* dataset_name) {
  World world = ExitIfError(BuildWorld(domain), "build world");
  const Dataset* target = ExitIfError(
      world.registry->Find(dataset_name), "find dataset");
  const std::vector<double> truth = ExitIfError(
      TrueFinalAccuracies(*world.zoo, *target, *world.simulator,
                          world.DefaultHp()),
      "truth");

  std::cout << "=== Fig. 1: accuracy distribution on " << dataset_name
            << " (" << world.zoo->size() << " models) ===\n";
  const std::vector<size_t> order = stats::ArgSortDescending(truth);
  std::cout << "rank accuracy bar\n";
  for (size_t r = 0; r < order.size(); ++r) {
    const double acc = truth[order[r]];
    const int bars = static_cast<int>(acc * 50);
    std::cout << strings::Format("%3zu  %.3f    ", r, acc)
              << std::string(static_cast<size_t>(bars), '#') << "\n";
  }
  const double top_decile_mean =
      stats::Mean({truth[order[0]], truth[order[1]], truth[order[2]]});
  std::cout << strings::Format(
      "top-3 mean %.3f, median %.3f, min %.3f  (few strong, long tail)\n\n",
      top_decile_mean, stats::Median(truth),
      *std::min_element(truth.begin(), truth.end()));
}

}  // namespace
}  // namespace bench
}  // namespace tps

int main() {
  tps::bench::Report(tps::TaskDomain::kNLP, "mnli");
  tps::bench::Report(tps::TaskDomain::kCV, "cub_birds");
  return 0;
}
