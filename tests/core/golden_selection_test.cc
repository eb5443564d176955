// Golden end-to-end regression suite: runs the full two-phase pipeline on
// the fixed-seed paper inventory (every NLP and CV target) and compares a
// structured snapshot — selected model, recalled candidate set, each SH
// rung's survivors, and the epoch totals — byte-for-byte against the
// checked-in golden files in tests/testdata/.
//
// An intentional behavior change (new proxy default, different zoo, new
// pruning rule) will fail this suite; regenerate the goldens with ONE
// command from the build directory and commit the diff alongside the
// change:
//
//   TPS_REGEN_GOLDEN=1 ctest -R golden --output-on-failure
//
// (or run the test binary directly with TPS_REGEN_GOLDEN=1). The diff of
// the regenerated JSON is the review artifact: it shows exactly which
// targets changed selection, recall or cost.

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "bench/lib/bench_util.h"
#include "core/two_phase.h"
#include "data/registry.h"
#include "model/paper_zoo.h"
#include "sim/finetune_simulator.h"
#include "util/json.h"

namespace tps {
namespace {

#ifndef TPS_TESTDATA_DIR
#error "TPS_TESTDATA_DIR must be defined by the build"
#endif

json::Value IndexArray(const std::vector<size_t>& indices) {
  json::Value array = json::Value::Array();
  for (size_t index : indices) {
    array.Append(json::Value::Int(static_cast<int64_t>(index)));
  }
  return array;
}

/// One deterministic snapshot of the whole domain: every target's
/// selection, recall set, rung survivors and epoch ledger.
json::Value Snapshot(TaskDomain domain) {
  ModelZoo zoo = *ModelZoo::Create(domain == TaskDomain::kNLP
                                       ? NlpPaperZooSpecs()
                                       : CvPaperZooSpecs());
  DatasetRegistry registry = *DatasetRegistry::CreatePaperInventory();
  FineTuneSimulator simulator;
  const Hyperparams hp = Hyperparams::DefaultsFor(domain);
  PerformanceMatrix matrix = *PerformanceMatrix::Build(
      zoo, registry.Benchmarks(domain), simulator, hp);
  ModelClustering clustering =
      *ClusterModels(matrix, zoo, ModelClusteringOptions());
  TwoPhaseSelector selector(&zoo, &matrix, &clustering, &simulator);

  json::Value root = json::Value::Object();
  root.Set("domain", json::Value::String(std::string(ToString(domain))));
  json::Value targets = json::Value::Object();
  for (const Dataset* target : Targets(registry, domain)) {
    SelectionTrace trace;
    TwoPhaseOptions options;
    options.trace = &trace;
    const TwoPhaseReport report = *selector.Select(*target, options, hp);

    json::Value entry = json::Value::Object();
    entry.Set("selected_model",
              json::Value::String(
                  zoo.model(report.selection.selected_model).name()));
    entry.Set("selected_accuracy",
              json::Value::Number(report.selection.selected_accuracy));
    entry.Set("recalled", IndexArray(trace.recall.recalled));
    json::Value rungs = json::Value::Array();
    for (const TraceStage& stage : trace.stages) {
      rungs.Append(IndexArray(stage.survivors));
    }
    entry.Set("rung_survivors", std::move(rungs));
    entry.Set("training_epochs",
              json::Value::Number(report.budget.training_epochs()));
    entry.Set("inference_epochs",
              json::Value::Number(report.budget.inference_epochs()));
    entry.Set("total_epochs",
              json::Value::Number(report.budget.total_epochs()));
    targets.Set(target->name(), std::move(entry));
  }
  root.Set("targets", std::move(targets));
  return root;
}

void RunGolden(TaskDomain domain, const std::string& file_name) {
  const std::string path = std::string(TPS_TESTDATA_DIR) + "/" + file_name;
  const std::string snapshot = Snapshot(domain).Dump(2) + "\n";

  if (const char* regen = std::getenv("TPS_REGEN_GOLDEN");
      regen != nullptr && regen[0] != '\0' && std::string(regen) != "0") {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write golden: " << path;
    out << snapshot;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "regenerated " << path << " — commit the diff";
  }

  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — regenerate with TPS_REGEN_GOLDEN=1";
  const std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  // Byte-for-byte: the snapshot dumps deterministically (insertion-order
  // keys, %.17g doubles), so any drift is a real behavior change.
  EXPECT_EQ(snapshot, golden)
      << "end-to-end selection drifted from " << path
      << "; if intentional, regenerate with TPS_REGEN_GOLDEN=1 and commit";
}

TEST(GoldenSelectionTest, NlpEndToEndMatchesGolden) {
  RunGolden(TaskDomain::kNLP, "golden_selection_nlp.json");
}

TEST(GoldenSelectionTest, CvEndToEndMatchesGolden) {
  RunGolden(TaskDomain::kCV, "golden_selection_cv.json");
}

}  // namespace
}  // namespace tps
