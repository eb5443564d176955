// NLP scenario: a practitioner has a new text-classification task (BoolQ,
// yes/no question answering) and a 40-model repository. This example walks
// the full workflow the paper describes:
//   1. offline: build the performance matrix on 24 benchmark datasets and
//      cluster the repository (done once, reused for every future task);
//   2. persist the performance matrix in a model store and read it back
//      (the store the CLI and server load every artifact from);
//   3. online: coarse-recall 10 candidates with LEEP, then fine-select with
//      convergence-trend-accelerated successive halving;
//   4. sanity-check the pick against exhaustive search.
//
// Usage: nlp_model_selection [target-name]   (default: boolq)

#include <cstdio>
#include <iostream>
#include <string>

#include "core/baselines.h"
#include "core/evaluation.h"
#include "core/two_phase.h"
#include "data/registry.h"
#include "model/paper_zoo.h"
#include "store/model_store.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace tps;
  const std::string target_name = argc > 1 ? argv[1] : "boolq";

  // --- Offline phase (amortized across all future tasks). ---
  auto registry = DatasetRegistry::CreatePaperInventory();
  TPS_CHECK_OK(registry.status());
  auto zoo = ModelZoo::Create(NlpPaperZooSpecs());
  TPS_CHECK_OK(zoo.status());
  FineTuneSimulator simulator;

  auto matrix = PerformanceMatrix::Build(
      *zoo, registry->Benchmarks(TaskDomain::kNLP), simulator,
      Hyperparams::DefaultsFor(TaskDomain::kNLP));
  TPS_CHECK_OK(matrix.status());

  // Persist and reload — the performance matrix is the repository's stored
  // metadata, not a per-task computation.
  const std::string store_path = "/tmp/tps_nlp_model_store.log";
  std::remove(store_path.c_str());  // Start from an empty log.
  {
    auto store = ModelStore::Open(store_path);
    TPS_CHECK_OK(store.status());
    TPS_CHECK_OK(store->PutPerformanceMatrix("nlp", *matrix));
  }
  auto store = ModelStore::OpenReadOnly(store_path);
  TPS_CHECK_OK(store.status());
  auto loaded = store->GetPerformanceMatrix("nlp");
  TPS_CHECK_OK(loaded.status());
  std::cout << "Offline store: " << loaded->num_models() << " models x "
            << loaded->num_datasets() << " benchmarks saved to "
            << store_path << "\n";

  auto clustering = ClusterModels(*loaded, *zoo, ModelClusteringOptions());
  TPS_CHECK_OK(clustering.status());
  std::cout << "Model clusters: " << clustering->clusters.num_clusters
            << " (" << clustering->NonSingletonClusters().size()
            << " non-singleton)\n\n";

  // --- Online phase for the new task. ---
  auto target = registry->Find(target_name);
  TPS_CHECK_OK(target.status());

  TwoPhaseSelector selector(&*zoo, &*loaded, &*clustering, &simulator);
  auto report = selector.Select(**target, TwoPhaseOptions());
  TPS_CHECK_OK(report.status());

  std::cout << "Recalled candidates for " << target_name
            << " (rank: model, recall score):\n";
  TablePrinter recalled({"rank", "model", "recall score", "prior acc"});
  for (size_t r = 0; r < 10 && r < report->recall.ranked.size(); ++r) {
    const RecallEntry& entry = report->recall.ranked[r];
    recalled.AddRow({std::to_string(r),
                     zoo->model(entry.model_index).name(),
                     strings::FormatDouble(entry.recall_score, 3),
                     strings::FormatDouble(entry.prior_accuracy, 3)});
  }
  recalled.Print(std::cout);

  std::cout << "\nFine-selection survivors per epoch:";
  for (size_t n : report->selection.survivors_per_stage) std::cout << " " << n;
  std::cout << "\nSelected: "
            << zoo->model(report->selection.selected_model).name()
            << "  accuracy " << report->selection.selected_accuracy
            << "  total cost " << report->budget.total_epochs()
            << " epoch-equivalents\n";

  // --- Sanity check against exhaustive search. ---
  auto truth = TrueFinalAccuracies(*zoo, **target, simulator,
                                   Hyperparams::DefaultsFor(TaskDomain::kNLP));
  TPS_CHECK_OK(truth.status());
  const size_t best = BestModel(*truth);
  std::cout << "Exhaustive-search best: " << zoo->model(best).name()
            << "  accuracy " << (*truth)[best] << "  (cost "
            << zoo->size() * 5 << " epochs)\n";
  return 0;
}
