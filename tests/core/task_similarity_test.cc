#include "bench/lib/task_similarity.h"

#include <gtest/gtest.h>

#include "core/evaluation.h"
#include "data/registry.h"
#include "model/paper_zoo.h"

namespace tps {
namespace {

class TaskSimilarityTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new ModelZoo(*ModelZoo::Create(NlpPaperZooSpecs()));
    registry_ =
        new DatasetRegistry(*DatasetRegistry::CreatePaperInventory());
    simulator_ = new FineTuneSimulator();
    benchmarks_ = new std::vector<const Dataset*>(
        registry_->Benchmarks(TaskDomain::kNLP));
    matrix_ = new PerformanceMatrix(*PerformanceMatrix::Build(
        *zoo_, *benchmarks_, *simulator_,
        Hyperparams::DefaultsFor(TaskDomain::kNLP)));
    probe_ = *zoo_->Find("bert-base-uncased");
  }

  static ModelZoo* zoo_;
  static DatasetRegistry* registry_;
  static FineTuneSimulator* simulator_;
  static std::vector<const Dataset*>* benchmarks_;
  static PerformanceMatrix* matrix_;
  static const PretrainedModel* probe_;
};

ModelZoo* TaskSimilarityTest::zoo_ = nullptr;
DatasetRegistry* TaskSimilarityTest::registry_ = nullptr;
FineTuneSimulator* TaskSimilarityTest::simulator_ = nullptr;
std::vector<const Dataset*>* TaskSimilarityTest::benchmarks_ = nullptr;
PerformanceMatrix* TaskSimilarityTest::matrix_ = nullptr;
const PretrainedModel* TaskSimilarityTest::probe_ = nullptr;

TEST_F(TaskSimilarityTest, EmbeddingHasMeanAndDispersionParts) {
  TaskSimilaritySelector selector(probe_, matrix_, *benchmarks_);
  auto embedding = selector.EmbedTask(**registry_->Find("mnli"));
  ASSERT_TRUE(embedding.ok());
  EXPECT_EQ(embedding->size(),
            2 * static_cast<size_t>(probe_->spec().num_source_labels));
  // Dispersion entries (second half) are non-negative.
  for (size_t d = embedding->size() / 2; d < embedding->size(); ++d) {
    EXPECT_GE((*embedding)[d], 0.0);
  }
}

// The mean half is each feature column's mean, summed down the rows in
// order: bit for bit what a column-strided loop gives.
TEST_F(TaskSimilarityTest, MeanHalfIsTheFeatureColumnMeans) {
  const Dataset& mnli = **registry_->Find("mnli");
  TaskSimilaritySelector selector(probe_, matrix_, *benchmarks_);
  auto embedding = selector.EmbedTask(mnli);
  ASSERT_TRUE(embedding.ok());
  auto features = probe_->ExtractFeatures(mnli);
  ASSERT_TRUE(features.ok());
  ASSERT_GT(features->rows(), 0u);
  ASSERT_EQ(embedding->size(), 2 * features->cols());
  for (size_t c = 0; c < features->cols(); ++c) {
    double sum = 0.0;
    for (size_t r = 0; r < features->rows(); ++r) sum += features->At(r, c);
    EXPECT_EQ((*embedding)[c], sum / static_cast<double>(features->rows()))
        << "column " << c;
  }
}

TEST_F(TaskSimilarityTest, TaskIsNearestToItself) {
  TaskSimilaritySelector selector(probe_, matrix_, *benchmarks_);
  // Use a benchmark dataset as the "target": its nearest benchmark must be
  // itself (cosine 1).
  const Dataset* qqp = *registry_->Find("qqp");
  auto nearest = selector.FindNearestBenchmark(*qqp);
  ASSERT_TRUE(nearest.ok());
  EXPECT_EQ((*benchmarks_)[nearest->benchmark_index]->name(), "qqp");
  EXPECT_NEAR(nearest->similarity, 1.0, 1e-9);
}

TEST_F(TaskSimilarityTest, MnliLandsOnAnNliBenchmark) {
  TaskSimilaritySelector selector(probe_, matrix_, *benchmarks_);
  auto nearest = selector.FindNearestBenchmark(**registry_->Find("mnli"));
  ASSERT_TRUE(nearest.ok());
  const std::string& name =
      (*benchmarks_)[nearest->benchmark_index]->name();
  // MNLI should match one of the NLI-flavoured benchmarks.
  const std::vector<std::string> nli = {"qnli", "rte",  "wnli", "cb",
                                        "xnli", "anli", "sick",
                                        "setfit_qnli"};
  EXPECT_NE(std::find(nli.begin(), nli.end(), name), nli.end())
      << "nearest was " << name;
}

TEST_F(TaskSimilarityTest, RankingIsPermutationOrderedByNearestBenchmark) {
  TaskSimilaritySelector selector(probe_, matrix_, *benchmarks_);
  const Dataset& target = **registry_->Find("mnli");
  auto ranked = selector.RankModels(target);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(ranked->size(), zoo_->size());
  auto nearest = *selector.FindNearestBenchmark(target);
  const std::vector<double> row =
      matrix_->accuracy().Row(nearest.benchmark_index);
  for (size_t i = 1; i < ranked->size(); ++i) {
    EXPECT_GE(row[(*ranked)[i - 1]], row[(*ranked)[i]]);
  }
}

TEST_F(TaskSimilarityTest, RecallQualityAboveChanceOnMnli) {
  TaskSimilaritySelector selector(probe_, matrix_, *benchmarks_);
  const Dataset& target = **registry_->Find("mnli");
  auto ranked = *selector.RankModels(target);
  const std::vector<double> truth = *TrueFinalAccuracies(
      *zoo_, target, *simulator_,
      Hyperparams::DefaultsFor(TaskDomain::kNLP));
  std::vector<size_t> top10(ranked.begin(), ranked.begin() + 10);
  double overall = 0.0;
  for (double a : truth) overall += a;
  overall /= static_cast<double>(truth.size());
  EXPECT_GT(MeanAt(truth, top10), overall);
}

}  // namespace
}  // namespace tps
