// Zoo explorer: inspects the simulated model zoo against a chosen target
// dataset — domain alignment, oracle accuracy, proxy scores — and prints
// the kind of per-model table a practitioner would use to sanity-check a
// repository before running selection.
//
// Usage: zoo_explorer [dataset-name]   (default: mnli)

#include <iostream>
#include <string>

#include "core/evaluation.h"
#include "data/registry.h"
#include "model/paper_zoo.h"
#include "sim/finetune_simulator.h"
#include "transfer/proxy_scorer.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace tps;
  const std::string target_name = argc > 1 ? argv[1] : "mnli";

  auto registry_or = DatasetRegistry::CreatePaperInventory();
  TPS_CHECK_OK(registry_or.status());
  auto target_or = registry_or->Find(target_name);
  TPS_CHECK_OK(target_or.status());
  const Dataset& target = **target_or;

  auto zoo_or = ModelZoo::Create(target.spec().domain == TaskDomain::kNLP
                                     ? NlpPaperZooSpecs()
                                     : CvPaperZooSpecs());
  TPS_CHECK_OK(zoo_or.status());
  const ModelZoo& zoo = *zoo_or;

  FineTuneSimulator simulator;
  const TransferOracle& oracle = simulator.oracle();
  const Hyperparams hp = Hyperparams::DefaultsFor(target.spec().domain);
  auto truth_or = TrueFinalAccuracies(zoo, target, simulator, hp);
  TPS_CHECK_OK(truth_or.status());
  const std::vector<double>& truth = *truth_or;

  auto leep_or = MakeProxyScorer("leep");
  TPS_CHECK_OK(leep_or.status());
  const ProxyScorer& leep = **leep_or;
  std::vector<double> leep_scores(zoo.size());
  for (size_t m = 0; m < zoo.size(); ++m) {
    auto score_or = leep.Score(zoo.model(m), target);
    TPS_CHECK_OK(score_or.status());
    leep_scores[m] = *score_or;
  }

  std::cout << "Target: " << target.name() << " ("
            << target.spec().num_labels << " labels, chance="
            << strings::FormatDouble(target.spec().EffectiveChance(), 3)
            << ", ceiling="
            << strings::FormatDouble(target.spec().EffectiveCeiling(), 3)
            << ")\n\n";

  TablePrinter table({"model", "capability", "cosine", "acc(final)", "LEEP"});
  for (size_t rank_index : stats::ArgSortDescending(truth)) {
    const PretrainedModel& model = zoo.model(rank_index);
    const TransferTruth t = oracle.Evaluate(model, target);
    table.AddRow({model.name(), strings::FormatDouble(model.capability(), 3),
                  strings::FormatDouble(t.domain_cosine, 3),
                  strings::FormatDouble(truth[rank_index], 3),
                  strings::FormatDouble(leep_scores[rank_index], 3)});
  }
  table.Print(std::cout);

  std::cout << "\nSpearman(LEEP, final accuracy) = "
            << strings::FormatDouble(
                   stats::SpearmanCorrelation(leep_scores, truth), 3)
            << "\n";
  return 0;
}
