// Extension bench: the full strategy landscape around the paper's method.
// For each target we compare, at their natural costs:
//   - proxy-only: fine-tune nothing but the top recall-scored model;
//   - task-similarity (Task2Vec-style [57]): pick the best model on the
//     nearest benchmark task, fine-tune only it;
//   - Hyperband over the recall ranking;
//   - successive halving over the full zoo (the paper's SH baseline);
//   - the paper's two-phase pipeline;
//   - brute force (accuracy ceiling).
// Plus the cost-aware planner's choice under three budget levels.

#include <iostream>
#include <numeric>

#include "bench/harness.h"
#include "bench/lib/hyperband.h"
#include "bench/lib/planner.h"
#include "bench/lib/task_similarity.h"
#include "core/baselines.h"
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
  std::vector<size_t> all(world.zoo->size());
  std::iota(all.begin(), all.end(), 0);

  CoarseRecall recall(world.zoo.get(), world.matrix.get(),
                      world.clustering.get());
  const PretrainedModel* probe = ExitIfError(
      world.zoo->Find(domain == TaskDomain::kNLP
                          ? "bert-base-uncased"
                          : "google/vit-base-patch16-224"),
      "probe");
  TaskSimilaritySelector task_sim(probe, world.matrix.get(),
                                  world.Benchmarks());
  HyperbandSelector hyperband(world.zoo.get(), world.simulator.get());
  SuccessiveHalvingSelector sh(world.zoo.get(), world.simulator.get());
  BruteForceSelector bf(world.zoo.get(), world.simulator.get());
  TwoPhaseSelector two_phase(world.zoo.get(), world.matrix.get(),
                             world.clustering.get(), world.simulator.get());

  std::cout << "=== Extension: strategy landscape (" << title << ") ===\n";
  TablePrinter table({"target", "strategy", "epochs", "accuracy"});
  for (const Dataset* target : world.Targets()) {
    const std::vector<double> truth = ExitIfError(
        TrueFinalAccuracies(*world.zoo, *target, *world.simulator, hp),
        "truth");

    // Proxy-only: recall once, fully train only the top-ranked model.
    EpochBudget proxy_budget;
    RecallResult rr = ExitIfError(
        recall.Recall(*target, RecallOptions(), &proxy_budget), "recall");
    const size_t proxy_pick = rr.ranked.front().model_index;
    proxy_budget.ChargeTraining(hp.epochs);
    table.AddRow({target->name(), "proxy-only",
                  strings::FormatDouble(proxy_budget.total_epochs(), 1),
                  strings::FormatDouble(truth[proxy_pick], 3)});

    // Task-similarity: one probe pass (charge 0.5), train its pick.
    const std::vector<size_t> task_ranked =
        ExitIfError(task_sim.RankModels(*target), "task-sim");
    table.AddRow({target->name(), "task-similarity",
                  strings::FormatDouble(0.5 + hp.epochs, 1),
                  strings::FormatDouble(truth[task_ranked.front()], 3)});

    // Hyperband over the recall ranking.
    std::vector<size_t> ranked;
    for (const RecallEntry& entry : rr.ranked) {
      ranked.push_back(entry.model_index);
    }
    const HyperbandOutcome hb = ExitIfError(
        hyperband.Select(ranked, *target, hp, nullptr), "hyperband");
    table.AddRow(
        {target->name(), "hyperband",
         strings::FormatDouble(hb.selection.training_epochs, 1),
         strings::FormatDouble(hb.selection.selected_accuracy, 3)});

    // SH over the full zoo.
    const SelectionOutcome sh_outcome =
        ExitIfError(sh.Select(all, *target, hp, nullptr), "sh");
    table.AddRow({target->name(), "successive halving",
                  strings::FormatDouble(sh_outcome.training_epochs, 1),
                  strings::FormatDouble(sh_outcome.selected_accuracy, 3)});

    // The paper's two-phase pipeline.
    const TwoPhaseReport report = ExitIfError(
        two_phase.Select(*target, TwoPhaseOptions(), hp), "2ph");
    table.AddRow(
        {target->name(), "two-phase (paper)",
         strings::FormatDouble(report.budget.total_epochs(), 1),
         strings::FormatDouble(report.selection.selected_accuracy, 3)});

    // Brute force ceiling.
    const SelectionOutcome bf_outcome =
        ExitIfError(bf.Select(all, *target, hp, nullptr), "bf");
    table.AddRow({target->name(), "brute force",
                  strings::FormatDouble(bf_outcome.training_epochs, 1),
                  strings::FormatDouble(bf_outcome.selected_accuracy, 3)});
    table.AddSeparator();
  }
  table.Print(std::cout);

  // Planner decisions at three budget levels.
  CostAwarePlanner planner(
      world.zoo->size(),
      world.clustering->NonSingletonClusters().size(), 10, hp.epochs);
  std::cout << "\nCost-aware planner (repository shape: "
            << world.zoo->size() << " models):\n";
  for (double budget : {15.0, 60.0, 500.0}) {
    const PlanDecision decision = planner.Plan(budget);
    std::cout << "  budget " << strings::FormatDouble(budget, 0)
              << " epochs -> " << ToString(decision.strategy) << " ("
              << decision.rationale << ")\n";
  }
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
