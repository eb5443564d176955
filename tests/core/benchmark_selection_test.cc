#include "bench/lib/benchmark_selection.h"

#include <set>

#include <gtest/gtest.h>

#include "bench/lib/rand_index.h"
#include "clustering/distance.h"
#include "clustering/hierarchical.h"
#include "core/model_clusterer.h"
#include "data/registry.h"
#include "model/paper_zoo.h"

namespace tps {
namespace {

class BenchmarkSelectionTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new ModelZoo(*ModelZoo::Create(NlpPaperZooSpecs()));
    auto registry = *DatasetRegistry::CreatePaperInventory();
    FineTuneSimulator simulator;
    matrix_ = new PerformanceMatrix(*PerformanceMatrix::Build(
        *zoo_, registry.Benchmarks(TaskDomain::kNLP), simulator,
        Hyperparams::DefaultsFor(TaskDomain::kNLP)));
  }

  static ModelZoo* zoo_;
  static PerformanceMatrix* matrix_;
};

ModelZoo* BenchmarkSelectionTest::zoo_ = nullptr;
PerformanceMatrix* BenchmarkSelectionTest::matrix_ = nullptr;

TEST_F(BenchmarkSelectionTest, SelectsRequestedDistinctSubset) {
  auto result = SelectCompactBenchmarks(*matrix_, 8);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->selected.size(), 8u);
  std::set<size_t> unique(result->selected.begin(), result->selected.end());
  EXPECT_EQ(unique.size(), 8u);
  for (size_t d : result->selected) EXPECT_LT(d, matrix_->num_datasets());
}

TEST_F(BenchmarkSelectionTest, FullSubsetReachesPerfectCorrelation) {
  auto result = SelectCompactBenchmarks(*matrix_, matrix_->num_datasets());
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->distance_correlation, 1.0, 1e-9);
}

TEST_F(BenchmarkSelectionTest, CorrelationGrowsWithSubsetSize) {
  const double small =
      SelectCompactBenchmarks(*matrix_, 2)->distance_correlation;
  const double medium =
      SelectCompactBenchmarks(*matrix_, 8)->distance_correlation;
  const double large =
      SelectCompactBenchmarks(*matrix_, 16)->distance_correlation;
  EXPECT_LT(small, medium);
  EXPECT_LT(medium, large);
  EXPECT_GT(large, 0.9);
}

TEST_F(BenchmarkSelectionTest, HalfSuitePreservesClusteringStructure) {
  // The future-work claim: a compact benchmark suite should reproduce the
  // model clustering of the full suite.
  auto result = SelectCompactBenchmarks(*matrix_, 12);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->distance_correlation, 0.85);

  // Rebuild a performance matrix restricted to the subset by constructing
  // distances directly and comparing hierarchical clusterings.
  ModelClusteringOptions options;
  auto full_clustering = *ClusterModels(*matrix_, *zoo_, options);

  // Build restricted vectors and cluster with the library primitives.
  std::vector<std::vector<double>> vectors(zoo_->size());
  for (size_t m = 0; m < zoo_->size(); ++m) {
    for (size_t d : result->selected) {
      vectors[m].push_back(matrix_->accuracy().At(d, m));
    }
  }
  auto distances =
      *PairwiseDistances(vectors, DistanceMetric::kTopKAbsDiff, 5);
  HierarchicalOptions hopts;
  hopts.num_clusters = full_clustering.clusters.num_clusters;
  auto subset_clusters = *HierarchicalCluster(distances, hopts);

  auto ari = AdjustedRandIndex(full_clustering.clusters,
                               subset_clusters.clustering);
  ASSERT_TRUE(ari.ok());
  EXPECT_GT(*ari, 0.4);  // Far above chance (~0).
}

TEST_F(BenchmarkSelectionTest, InputValidation) {
  EXPECT_TRUE(SelectCompactBenchmarks(*matrix_, 0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(SelectCompactBenchmarks(*matrix_, 1000)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace tps
