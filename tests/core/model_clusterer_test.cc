#include "core/model_clusterer.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "bench/lib/baseline_clustering.h"
#include "data/registry.h"
#include "model/paper_zoo.h"
#include "util/string_util.h"
#include "util/test_helpers.h"

namespace tps {
namespace {

/// Full NLP world (shared across tests; built once).
class ModelClustererTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new ModelZoo(*ModelZoo::Create(NlpPaperZooSpecs()));
    registry_ =
        new DatasetRegistry(*DatasetRegistry::CreatePaperInventory());
    FineTuneSimulator simulator;
    matrix_ = new PerformanceMatrix(*PerformanceMatrix::Build(
        *zoo_, registry_->Benchmarks(TaskDomain::kNLP), simulator,
        Hyperparams::DefaultsFor(TaskDomain::kNLP)));
  }

  static ModelZoo* zoo_;
  static DatasetRegistry* registry_;
  static PerformanceMatrix* matrix_;
};

ModelZoo* ModelClustererTest::zoo_ = nullptr;
DatasetRegistry* ModelClustererTest::registry_ = nullptr;
PerformanceMatrix* ModelClustererTest::matrix_ = nullptr;

TEST_F(ModelClustererTest, DefaultClusteringIsNonDegenerate) {
  auto clustering = *ClusterModels(*matrix_, *zoo_, ModelClusteringOptions());
  EXPECT_EQ(clustering.clusters.assignments.size(), 40u);
  EXPECT_GE(clustering.NonSingletonClusters().size(), 4u);
  EXPECT_LE(clustering.NonSingletonClusters().size(), 12u);
  const std::vector<size_t> sizes = clustering.clusters.Sizes();
  EXPECT_GE(std::count(sizes.begin(), sizes.end(), size_t{1}), 2);
  EXPECT_EQ(clustering.representatives.size(),
            static_cast<size_t>(clustering.clusters.num_clusters));
}

TEST_F(ModelClustererTest, QqpLineageCoClusters) {
  auto clustering = *ClusterModels(*matrix_, *zoo_, ModelClusteringOptions());
  const size_t a = *zoo_->IndexOf("Jeevesh8/bert_ft_qqp-68");
  const size_t b = *zoo_->IndexOf("Jeevesh8/bert_ft_qqp-9");
  const size_t c = *zoo_->IndexOf("Jeevesh8/bert_ft_qqp-40");
  const std::vector<int>& cluster_of = clustering.clusters.assignments;
  EXPECT_EQ(cluster_of[a], cluster_of[b]);
  EXPECT_EQ(cluster_of[a], cluster_of[c]);
  // The weak random-init lineage lands elsewhere.
  const size_t weak = *zoo_->IndexOf("Jeevesh8/init_bert_ft_qqp-33");
  EXPECT_NE(cluster_of[a], cluster_of[weak]);
}

TEST_F(ModelClustererTest, RepresentativeHasMaxAverageAccuracy) {
  auto clustering = *ClusterModels(*matrix_, *zoo_, ModelClusteringOptions());
  for (int c = 0; c < clustering.clusters.num_clusters; ++c) {
    const size_t rep = clustering.representatives[static_cast<size_t>(c)];
    EXPECT_EQ(clustering.clusters.assignments[rep], c);
    for (size_t member : clustering.clusters.Members(c)) {
      EXPECT_GE(matrix_->ModelAverageAccuracy(rep),
                matrix_->ModelAverageAccuracy(member));
    }
  }
}

TEST_F(ModelClustererTest, SingletonPredicateMatchesClusterSizes) {
  auto clustering = *ClusterModels(*matrix_, *zoo_, ModelClusteringOptions());
  const std::vector<size_t> sizes = clustering.clusters.Sizes();
  const std::vector<int> scored = clustering.NonSingletonClusters();
  for (size_t m = 0; m < zoo_->size(); ++m) {
    const int c = clustering.clusters.assignments[m];
    const bool in_scored =
        std::find(scored.begin(), scored.end(), c) != scored.end();
    EXPECT_EQ(in_scored, sizes[static_cast<size_t>(c)] > 1);
  }
}

TEST_F(ModelClustererTest, KMeansPathProducesRequestedK) {
  BaselineClusteringOptions options;
  options.algorithm = ClusterAlgorithm::kKMeans;
  options.num_clusters = 10;
  auto clustering = *ClusterModelsBaseline(*matrix_, *zoo_, options);
  EXPECT_EQ(clustering.clusters.num_clusters, 10);
}

TEST_F(ModelClustererTest, KMeansWithoutKFails) {
  BaselineClusteringOptions options;
  options.algorithm = ClusterAlgorithm::kKMeans;
  options.num_clusters = 0;
  EXPECT_TRUE(ClusterModelsBaseline(*matrix_, *zoo_, options)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ModelClustererTest, TextSimilarityPathWorks) {
  BaselineClusteringOptions options;
  options.similarity = ModelSimilarityKind::kTextCard;
  options.distance_threshold = 0.5;
  auto clustering = ClusterModelsBaseline(*matrix_, *zoo_, options);
  ASSERT_TRUE(clustering.ok());
  EXPECT_EQ(clustering->clusters.assignments.size(), 40u);
}

TEST_F(ModelClustererTest, DistancesMatrixIsSymmetricZeroDiagonal) {
  auto clustering = *ClusterModels(*matrix_, *zoo_, ModelClusteringOptions());
  const Matrix& d = clustering.distances;
  ASSERT_EQ(d.rows(), 40u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(d.At(i, i), 0.0);
    for (size_t j = 0; j < 10; ++j) {
      EXPECT_DOUBLE_EQ(d.At(i, j), d.At(j, i));
    }
  }
}

TEST_F(ModelClustererTest, FormatClustersListsNonSingletons) {
  auto clustering = *ClusterModels(*matrix_, *zoo_, ModelClusteringOptions());
  const std::string text = FormatClusters(clustering, *zoo_, false);
  EXPECT_TRUE(strings::Contains(text, "C1 (size"));
  EXPECT_TRUE(strings::Contains(text, "singleton clusters)"));
  const std::string full = FormatClusters(clustering, *zoo_, true);
  // With singletons included, every model name appears.
  for (size_t m = 0; m < 5; ++m) {
    EXPECT_TRUE(strings::Contains(full, zoo_->model(m).name()));
  }
}

TEST_F(ModelClustererTest, RejectsMismatchedZoo) {
  auto small_zoo = *ModelZoo::Create(
      {NlpPaperZooSpecs()[0], NlpPaperZooSpecs()[1]});
  EXPECT_TRUE(ClusterModels(*matrix_, small_zoo, ModelClusteringOptions())
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace tps
