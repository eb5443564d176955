// Ablation: successive-halving reduction factor eta vs the trend-informed
// fine-selection filter. Classic SH prunes a fixed 1/eta of the pool per
// stage regardless of evidence; fine-selection prunes adaptively using the
// convergence-trend prediction. Sweeping eta shows the trade the paper's
// Section IV.C motivates: aggressive fixed pruning (large eta) approaches
// FS's cost but pays in selected-model accuracy, while FS gets the low
// cost *and* keeps the accuracy.

#include <iostream>
#include <numeric>

#include "bench/harness.h"
#include "core/baselines.h"
#include "core/convergence_trend.h"
#include "core/fine_selection.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace tps {
namespace bench {
namespace {

void Report(TaskDomain domain, const char* title) {
  World world = ExitIfError(BuildWorld(domain), "build world");
  const Hyperparams hp = world.DefaultHp();
  ConvergenceTrendMiner miner(world.matrix.get());
  std::vector<size_t> all(world.zoo->size());
  std::iota(all.begin(), all.end(), 0);

  std::cout << "=== Ablation: SH eta sweep vs fine-selection (" << title
            << ", full zoo) ===\n";
  SectionedTable table({"target", "method", "epochs", "accuracy"});
  for (const Dataset* target : world.Targets()) {
    for (int eta : {2, 3, 4}) {
      SuccessiveHalvingOptions options;
      options.eta = eta;
      SuccessiveHalvingSelector sh(world.zoo.get(), world.simulator.get(),
                                   options);
      const SelectionOutcome outcome = ExitIfError(
          sh.Select(all, *target, hp, nullptr), "sh");
      table.AddRow({target->name(), strings::Format("SH eta=%d", eta),
                    strings::FormatDouble(outcome.training_epochs, 0),
                    strings::FormatDouble(outcome.selected_accuracy, 3)});
    }
    FineSelectionSelector fs(world.zoo.get(), world.simulator.get(),
                             &miner);
    const SelectionOutcome outcome = ExitIfError(
        fs.Select(all, *target, hp, nullptr), "fs");
    table.AddRow({target->name(), "FS (trend-informed)",
                  strings::FormatDouble(outcome.training_epochs, 0),
                  strings::FormatDouble(outcome.selected_accuracy, 3)});
    table.AddSeparator();
  }
  table.Print(std::cout);
  std::cout << "\n";
}

}  // namespace
}  // namespace bench
}  // namespace tps

int main() {
  tps::bench::Report(tps::TaskDomain::kNLP, "NLP");
  tps::bench::Report(tps::TaskDomain::kCV, "CV");
  return 0;
}
