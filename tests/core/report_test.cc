#include "core/report.h"

#include <gtest/gtest.h>

#include "data/registry.h"
#include "model/paper_zoo.h"
#include "util/string_util.h"
#include "util/test_helpers.h"

namespace tps {
namespace {

TEST(ReportTest, RendersAllSections) {
  auto registry = *DatasetRegistry::CreatePaperInventory();
  auto zoo = *ModelZoo::Create(NlpPaperZooSpecs());
  FineTuneSimulator simulator;
  auto matrix = *PerformanceMatrix::Build(
      zoo, registry.Benchmarks(TaskDomain::kNLP), simulator,
      Hyperparams::DefaultsFor(TaskDomain::kNLP));
  auto clustering = *ClusterModels(matrix, zoo, ModelClusteringOptions());
  const Dataset& target = **registry.Find("mnli");

  TwoPhaseSelector selector(&zoo, &matrix, &clustering, &simulator);
  auto report = *selector.Select(target, TwoPhaseOptions());

  const std::string markdown =
      RenderSelectionReport(report, zoo, target, /*recall_rows=*/5);
  EXPECT_TRUE(strings::Contains(markdown, "# Two-phase selection report"));
  EXPECT_TRUE(strings::Contains(markdown, "`mnli`"));
  EXPECT_TRUE(strings::Contains(markdown, "## Phase 1"));
  EXPECT_TRUE(strings::Contains(markdown, "## Phase 2"));
  EXPECT_TRUE(strings::Contains(markdown, "## Cost ledger"));
  // The winner and the top recalled model names appear as code spans.
  EXPECT_TRUE(strings::Contains(
      markdown,
      "`" + zoo.model(report.selection.selected_model).name() + "`"));
  EXPECT_TRUE(strings::Contains(
      markdown,
      "`" + zoo.model(report.recall.ranked[0].model_index).name() + "`"));
  // Exactly 5 recall rows were requested: header + separator + 5 rows.
  size_t pipe_rows = 0;
  for (const std::string& line : strings::Split(markdown, '\n')) {
    if (strings::StartsWith(line, "| ") &&
        !strings::Contains(line, "rank") &&
        !strings::Contains(line, "---") &&
        strings::Contains(line, "| 0.")) {
      ++pipe_rows;
    }
  }
  EXPECT_GE(pipe_rows, 5u);
  // Cost ledger adds up.
  EXPECT_TRUE(strings::Contains(
      markdown, strings::FormatDouble(report.budget.total_epochs(), 1)));
}

}  // namespace
}  // namespace tps
