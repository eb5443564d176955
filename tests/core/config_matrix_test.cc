// Configuration-matrix integration tests: the two-phase pipeline must stay
// functional (not just the default configuration) across clustering
// algorithms, similarity kinds, proxy scorers, recall sizes and trend
// counts. Each combination runs end-to-end on MNLI and must produce a
// valid selection at a sane cost.

#include <gtest/gtest.h>

#include "bench/lib/baseline_clustering.h"
#include "core/two_phase.h"
#include "data/registry.h"
#include "model/paper_zoo.h"

namespace tps {
namespace {

struct Config {
  ClusterAlgorithm algorithm;
  ModelSimilarityKind similarity;
  std::string proxy;
  size_t recall_k;
  int num_trends;
};

std::string ConfigName(const testing::TestParamInfo<Config>& info) {
  const Config& c = info.param;
  std::string name;
  name += c.algorithm == ClusterAlgorithm::kHierarchical ? "Hier" : "Kmeans";
  name += c.similarity == ModelSimilarityKind::kPerformance ? "Perf" : "Text";
  name += "_" + c.proxy;
  name += std::string("_k") + std::to_string(c.recall_k);
  name += std::string("_t") + std::to_string(c.num_trends);
  return name;
}

class ConfigMatrixTest : public testing::TestWithParam<Config> {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new ModelZoo(*ModelZoo::Create(NlpPaperZooSpecs()));
    registry_ =
        new DatasetRegistry(*DatasetRegistry::CreatePaperInventory());
    simulator_ = new FineTuneSimulator();
    matrix_ = new PerformanceMatrix(*PerformanceMatrix::Build(
        *zoo_, registry_->Benchmarks(TaskDomain::kNLP), *simulator_,
        Hyperparams::DefaultsFor(TaskDomain::kNLP)));
    target_ = *registry_->Find("mnli");
  }

  static ModelZoo* zoo_;
  static DatasetRegistry* registry_;
  static FineTuneSimulator* simulator_;
  static PerformanceMatrix* matrix_;
  static const Dataset* target_;
};

ModelZoo* ConfigMatrixTest::zoo_ = nullptr;
DatasetRegistry* ConfigMatrixTest::registry_ = nullptr;
FineTuneSimulator* ConfigMatrixTest::simulator_ = nullptr;
PerformanceMatrix* ConfigMatrixTest::matrix_ = nullptr;
const Dataset* ConfigMatrixTest::target_ = nullptr;

TEST_P(ConfigMatrixTest, PipelineCompletesWithValidOutcome) {
  const Config& config = GetParam();
  BaselineClusteringOptions cluster_options;
  cluster_options.algorithm = config.algorithm;
  cluster_options.similarity = config.similarity;
  if (config.algorithm == ClusterAlgorithm::kKMeans) {
    cluster_options.num_clusters = 12;
  } else if (config.similarity == ModelSimilarityKind::kTextCard) {
    cluster_options.distance_threshold = 0.5;  // Cosine-distance scale.
  }
  auto clustering = ClusterModelsBaseline(*matrix_, *zoo_, cluster_options);
  ASSERT_TRUE(clustering.ok()) << clustering.status().ToString();

  TwoPhaseOptions options;
  options.recall.proxy = config.proxy;
  options.recall.top_k_models = config.recall_k;
  TrendMinerOptions trends;
  trends.num_trends = config.num_trends;

  TwoPhaseSelector selector(zoo_, matrix_, &*clustering, simulator_, trends);
  auto report = selector.Select(*target_, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Validity: pick is a real model from the recalled set; costs are sane.
  EXPECT_LT(report->selection.selected_model, zoo_->size());
  EXPECT_GT(report->selection.selected_accuracy, 0.3);
  EXPECT_EQ(report->selection.survivors_per_stage.front(), config.recall_k);
  EXPECT_GT(report->budget.training_epochs(),
            static_cast<double>(config.recall_k));
  EXPECT_LT(report->budget.total_epochs(), 200.0);  // Far below BF.
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConfigMatrixTest,
    testing::Values(
        Config{ClusterAlgorithm::kHierarchical,
               ModelSimilarityKind::kPerformance, "leep", 10, 4},
        Config{ClusterAlgorithm::kHierarchical,
               ModelSimilarityKind::kPerformance, "nce", 10, 4},
        Config{ClusterAlgorithm::kHierarchical,
               ModelSimilarityKind::kPerformance, "logme", 10, 4},
        Config{ClusterAlgorithm::kHierarchical,
               ModelSimilarityKind::kPerformance, "knn", 10, 4},
        Config{ClusterAlgorithm::kKMeans,
               ModelSimilarityKind::kPerformance, "leep", 10, 4},
        Config{ClusterAlgorithm::kHierarchical,
               ModelSimilarityKind::kTextCard, "leep", 10, 4},
        Config{ClusterAlgorithm::kHierarchical,
               ModelSimilarityKind::kPerformance, "leep", 5, 4},
        Config{ClusterAlgorithm::kHierarchical,
               ModelSimilarityKind::kPerformance, "leep", 20, 4},
        Config{ClusterAlgorithm::kHierarchical,
               ModelSimilarityKind::kPerformance, "leep", 10, 2},
        Config{ClusterAlgorithm::kHierarchical,
               ModelSimilarityKind::kPerformance, "leep", 10, 8}),
    ConfigName);

}  // namespace
}  // namespace tps
