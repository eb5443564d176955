// Reproduces Table IV: fine-selection accuracy and runtime under filtering
// thresholds 0%, 1%, 5%, 10% on MNLI, MultiRC, Flowers and X-Ray (top-10
// recalled models). The paper: accuracy is flat-to-slightly-better with
// larger thresholds while runtime grows (14-16 -> 15-19 epochs).

#include <iostream>

#include "bench/harness.h"
#include "core/coarse_recall.h"
#include "core/convergence_trend.h"
#include "core/fine_selection.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace tps {
namespace bench {
namespace {

void Report(TaskDomain domain, const std::vector<std::string>& targets,
            SectionedTable& table) {
  World world = ExitIfError(BuildWorld(domain), "build world");
  CoarseRecall recall(world.zoo.get(), world.matrix.get(),
                      world.clustering.get());
  ConvergenceTrendMiner miner(world.matrix.get());
  const Hyperparams hp = world.DefaultHp();

  for (const std::string& name : targets) {
    const Dataset* target = ExitIfError(world.registry->Find(name), name);
    RecallResult rr = ExitIfError(
        recall.Recall(*target, RecallOptions(), nullptr), "recall " + name);
    const std::vector<size_t> top10 = rr.TopModels(10);

    std::vector<std::string> acc_row = {name, "accuracy"};
    std::vector<std::string> time_row = {name, "runtime (epochs)"};
    for (double threshold : {0.0, 0.01, 0.05, 0.10}) {
      FineSelectionOptions options;
      options.threshold = threshold;
      FineSelectionSelector fs(world.zoo.get(), world.simulator.get(),
                               &miner, options);
      const SelectionOutcome outcome = ExitIfError(
          fs.Select(top10, *target, hp, nullptr), "fs " + name);
      acc_row.push_back(strings::FormatDouble(outcome.selected_accuracy, 3));
      time_row.push_back(strings::FormatDouble(outcome.training_epochs, 0));
    }
    table.AddRow(acc_row);
    table.AddRow(time_row);
    table.AddSeparator();
  }
}

}  // namespace
}  // namespace bench
}  // namespace tps

int main() {
  using namespace tps;
  using namespace tps::bench;
  std::cout << "=== Table IV: fine-selection filtering threshold sweep "
               "===\n";
  SectionedTable table({"target", "metric", "0%", "1%", "5%", "10%"});
  Report(TaskDomain::kNLP, {"mnli", "multirc"}, table);
  Report(TaskDomain::kCV, {"oxford_flowers", "chest_xray"}, table);
  table.Print(std::cout);
  return 0;
}
