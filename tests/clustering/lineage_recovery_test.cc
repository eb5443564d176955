// Property test across the full stack: for synthetic zoos with planted
// lineage structure, Eq. 1 + hierarchical clustering over the performance
// matrix recovers the planted groups far above chance. This is the load-
// bearing claim behind the coarse-recall phase.

#include <gtest/gtest.h>

#include "bench/lib/baseline_clustering.h"
#include "bench/lib/rand_index.h"
#include "core/model_clusterer.h"
#include "data/registry.h"
#include "model/zoo.h"
#include "sim/finetune_simulator.h"

namespace tps {
namespace {

/// Builds a zoo of `groups` lineages x `per_group` models: same family,
/// same fine-tune tags within a lineage.
std::vector<ModelSpec> LineageZoo(int groups, int per_group, uint64_t seed) {
  const std::vector<std::vector<std::string>> finetunes = {
      {"english", "nli"},          {"english", "sentiment"},
      {"english", "paraphrase"},   {"english", "topic"},
      {"english", "questions"},    {"multilingual", "nli"},
      {"english", "finance"},      {"english", "grammar"}};
  const std::vector<std::string> families = {"bert", "roberta", "albert",
                                             "electra"};
  std::vector<ModelSpec> specs;
  for (int g = 0; g < groups; ++g) {
    for (int i = 0; i < per_group; ++i) {
      ModelSpec spec;
      spec.name = std::string("lineage") + std::to_string(seed) + "/g" +
                  std::to_string(g) + std::string("-m") + std::to_string(i);
      spec.domain = TaskDomain::kNLP;
      spec.family = families[static_cast<size_t>(g) % families.size()];
      spec.capability = 0.5 + 0.04 * static_cast<double>(g % 4);
      spec.pretrain_tags = {"english", "books", "wikipedia"};
      spec.finetune_tags = finetunes[static_cast<size_t>(g) %
                                     finetunes.size()];
      spec.num_source_labels = 3;
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

class LineageRecoveryTest : public testing::TestWithParam<int> {};

TEST_P(LineageRecoveryTest, HierarchicalClusteringRecoversPlantedLineages) {
  const int groups = GetParam();
  const int per_group = 4;
  auto zoo = *ModelZoo::Create(
      LineageZoo(groups, per_group, static_cast<uint64_t>(groups)));
  auto registry = *DatasetRegistry::CreatePaperInventory();
  FineTuneSimulator simulator;
  auto matrix = *PerformanceMatrix::Build(
      zoo, registry.Benchmarks(TaskDomain::kNLP), simulator,
      Hyperparams::DefaultsFor(TaskDomain::kNLP));

  ModelClusteringOptions options;
  options.num_clusters = groups;  // Cut at the planted granularity.
  auto clustering = *ClusterModels(matrix, zoo, options);

  ClusteringResult planted;
  planted.num_clusters = groups;
  for (int g = 0; g < groups; ++g) {
    for (int i = 0; i < per_group; ++i) {
      planted.assignments.push_back(g);
    }
  }
  const double ari =
      *AdjustedRandIndex(planted, clustering.clusters);
  EXPECT_GT(ari, 0.5) << "groups=" << groups;
}

INSTANTIATE_TEST_SUITE_P(GroupCounts, LineageRecoveryTest,
                         testing::Values(2, 3, 4, 6));

TEST(LineageRecoveryTest, KMeansAlsoRecoversButTypicallyNoBetter) {
  // The Table I claim, as a property: hierarchical ARI >= k-means ARI - eps
  // on planted-lineage data.
  const int groups = 4, per_group = 4;
  auto zoo = *ModelZoo::Create(LineageZoo(groups, per_group, 99));
  auto registry = *DatasetRegistry::CreatePaperInventory();
  FineTuneSimulator simulator;
  auto matrix = *PerformanceMatrix::Build(
      zoo, registry.Benchmarks(TaskDomain::kNLP), simulator,
      Hyperparams::DefaultsFor(TaskDomain::kNLP));

  ClusteringResult planted;
  planted.num_clusters = groups;
  for (int g = 0; g < groups; ++g) {
    for (int i = 0; i < per_group; ++i) planted.assignments.push_back(g);
  }

  ModelClusteringOptions h_options;
  h_options.num_clusters = groups;
  auto hierarchical = *ClusterModels(matrix, zoo, h_options);
  BaselineClusteringOptions k_options;
  k_options.algorithm = ClusterAlgorithm::kKMeans;
  k_options.num_clusters = groups;
  auto kmeans = *ClusterModelsBaseline(matrix, zoo, k_options);

  const double h_ari = *AdjustedRandIndex(planted, hierarchical.clusters);
  const double k_ari = *AdjustedRandIndex(planted, kmeans.clusters);
  EXPECT_GT(h_ari, 0.6);
  EXPECT_GE(h_ari, k_ari - 0.15);
}

}  // namespace
}  // namespace tps
