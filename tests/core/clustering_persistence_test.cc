#include <fstream>

#include <gtest/gtest.h>

#include "core/model_clusterer.h"
#include "data/registry.h"
#include "matrix/matrix_testing.h"
#include "model/paper_zoo.h"

namespace tps {
namespace {

class ClusteringPersistenceTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new ModelZoo(*ModelZoo::Create(CvPaperZooSpecs()));
    auto registry = *DatasetRegistry::CreatePaperInventory();
    FineTuneSimulator simulator;
    auto matrix = *PerformanceMatrix::Build(
        *zoo_, registry.Benchmarks(TaskDomain::kCV), simulator,
        Hyperparams::DefaultsFor(TaskDomain::kCV));
    clustering_ = new ModelClustering(
        *ClusterModels(matrix, *zoo_, ModelClusteringOptions()));
  }

  static ModelZoo* zoo_;
  static ModelClustering* clustering_;
};

ModelZoo* ClusteringPersistenceTest::zoo_ = nullptr;
ModelClustering* ClusteringPersistenceTest::clustering_ = nullptr;

TEST_F(ClusteringPersistenceTest, SaveLoadRoundTrips) {
  const std::string path = testing::TempDir() + "/tps_clustering.txt";
  ASSERT_TRUE(SaveClustering(*clustering_, path).ok());
  auto loaded = LoadClustering(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->clusters.assignments,
            clustering_->clusters.assignments);
  EXPECT_EQ(loaded->clusters.num_clusters,
            clustering_->clusters.num_clusters);
  EXPECT_EQ(loaded->representatives, clustering_->representatives);
  EXPECT_EQ(loaded->options.top_k, clustering_->options.top_k);
  EXPECT_EQ(loaded->options.similarity, clustering_->options.similarity);
  EXPECT_EQ(loaded->options.algorithm, clustering_->options.algorithm);
  EXPECT_NEAR(loaded->options.distance_threshold,
              clustering_->options.distance_threshold, 1e-15);
  EXPECT_TRUE(ApproxEquals(loaded->distances, clustering_->distances, 1e-12));
}

TEST_F(ClusteringPersistenceTest, LoadedClusteringDrivesRecallIdentically) {
  // The persisted artifact must be behaviourally identical, not just
  // field-equal: NonSingletonClusters and representative lookups agree.
  const std::string path = testing::TempDir() + "/tps_clustering2.txt";
  ASSERT_TRUE(SaveClustering(*clustering_, path).ok());
  auto loaded = *LoadClustering(path);
  EXPECT_EQ(loaded.NonSingletonClusters(),
            clustering_->NonSingletonClusters());
  for (size_t m = 0; m < zoo_->size(); ++m) {
    EXPECT_EQ(loaded.IsSingletonModel(m),
              clustering_->IsSingletonModel(m));
    EXPECT_EQ(loaded.ClusterOf(m), clustering_->ClusterOf(m));
  }
}

TEST_F(ClusteringPersistenceTest, LoadRejectsCorruptInput) {
  EXPECT_TRUE(LoadClustering("/no/such/file").status().IsIOError());
  const std::string path = testing::TempDir() + "/tps_bad_clustering.txt";
  {
    std::ofstream out(path);
    out << "wrong header\n";
  }
  EXPECT_TRUE(LoadClustering(path).status().IsInvalidArgument());
  {
    std::ofstream out(path);
    out << "tps-model-clustering v1\n5 9\n";  // More clusters than models.
  }
  EXPECT_TRUE(LoadClustering(path).status().IsInvalidArgument());
  {
    std::ofstream out(path);
    out << "tps-model-clustering v1\n2 2\n0 0 5 0 0.1 42\n0 7\n";  // Bad
                                                                   // assign.
  }
  EXPECT_TRUE(LoadClustering(path).status().IsInvalidArgument());

  // Counts the text cannot hold are rejected before anything is sized by
  // them: a model count far past the text's length, and a distance matrix
  // whose n x n entries could not fit in it.
  const auto expect_rejected = [](const std::string& text,
                                  const std::string& message) {
    const Status status = DeserializeClustering(text).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_EQ(status.message(), message);
  };
  expect_rejected(
      "tps-model-clustering v1\n5000000000000000000 1\n0 0 5 0 0.1 42\n0\n",
      "bad clustering dimensions");
  std::string wide = "tps-model-clustering v1\n4000 1\n0 0 5 0 0.1 42\n";
  for (int m = 0; m < 4000; ++m) wide += "0 ";
  wide += "\n0\n4000\n";  // 16M distances promised in ~8 KB.
  expect_rejected(wide, "bad distance matrix size");
  // A real clustering cut inside its distances.
  const std::string full = SerializeClustering(*clustering_);
  expect_rejected(full.substr(0, full.size() - full.size() / 10),
                  "truncated distances");
}

TEST_F(ClusteringPersistenceTest, SaveToUnwritablePathFails) {
  EXPECT_TRUE(
      SaveClustering(*clustering_, "/no-dir/x.txt").IsIOError());
}

}  // namespace
}  // namespace tps
