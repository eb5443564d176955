#include <gtest/gtest.h>

#include "core/model_clusterer.h"
#include "data/registry.h"
#include "matrix/matrix_testing.h"
#include "model/paper_zoo.h"
#include "store/model_store.h"

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
  auto loaded = DeserializeClustering(SerializeClustering(*clustering_));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->clusters.assignments,
            clustering_->clusters.assignments);
  EXPECT_EQ(loaded->clusters.num_clusters,
            clustering_->clusters.num_clusters);
  EXPECT_EQ(loaded->representatives, clustering_->representatives);
  EXPECT_EQ(loaded->options.top_k, clustering_->options.top_k);
  EXPECT_EQ(loaded->options.num_clusters, clustering_->options.num_clusters);
  EXPECT_EQ(loaded->options.distance_threshold,
            clustering_->options.distance_threshold);
  EXPECT_EQ(loaded->distances.data(), clustering_->distances.data());
  EXPECT_EQ(loaded->distances.rows(), clustering_->distances.rows());

  // A threshold past 6 significant digits survives too (the stream writer
  // kept only 6: 0.0851234567891 read back as 0.0851235).
  ModelClustering fine = *clustering_;
  fine.options.distance_threshold = 0.0851234567891;
  EXPECT_EQ(DeserializeClustering(SerializeClustering(fine))
                ->options.distance_threshold,
            0.0851234567891);
}

TEST_F(ClusteringPersistenceTest, LoadedClusteringDrivesRecallIdentically) {
  // The persisted artifact must be behaviourally identical, not just
  // field-equal: NonSingletonClusters and representative lookups agree.
  auto loaded = *DeserializeClustering(SerializeClustering(*clustering_));
  EXPECT_EQ(loaded.NonSingletonClusters(),
            clustering_->NonSingletonClusters());
  EXPECT_EQ(loaded.clusters.Sizes(), clustering_->clusters.Sizes());
  for (size_t m = 0; m < zoo_->size(); ++m) {
    EXPECT_EQ(loaded.clusters.assignments[m],
              clustering_->clusters.assignments[m]);
  }
}

TEST_F(ClusteringPersistenceTest, ReadsV1Records) {
  // Written by the v1 writer, which also stored the similarity kind, the
  // algorithm and the k-means seed: a hierarchical clustering with
  // distances, and an index-derived one (labelled k-means) without.
  const std::string hierarchical =
      "tps-model-clustering v1\n3 2\n0 0 5 0 0.085 42\n0 0 1 \n1 2 \n3\n"
      "0 0.0625 0.29999999999999999 \n0.0625 0 0.28125 \n"
      "0.29999999999999999 0.28125 0 \n";
  const std::string index_derived =
      "tps-model-clustering v1\n4 2\n0 1 5 2 0.085 42\n1 0 1 0 \n3 0 \n0\n";

  auto loaded = DeserializeClustering(hierarchical);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->clusters.assignments, (std::vector<int>{0, 0, 1}));
  EXPECT_EQ(loaded->representatives, (std::vector<size_t>{1, 2}));
  EXPECT_EQ(loaded->options.top_k, 5u);
  EXPECT_EQ(loaded->options.num_clusters, 0);
  EXPECT_DOUBLE_EQ(loaded->options.distance_threshold, 0.085);
  ASSERT_EQ(loaded->distances.rows(), 3u);
  EXPECT_DOUBLE_EQ(loaded->distances.At(0, 2), 0.3);
  EXPECT_DOUBLE_EQ(loaded->distances.At(1, 2), 0.28125);
  // Written back, it is a v2 record that drops the three fields.
  const std::string rewritten = SerializeClustering(*loaded);
  EXPECT_EQ(rewritten.substr(0, rewritten.find("\n0 0 1")),
            "tps-model-clustering v2\n3 2\n5 0 0.085");

  auto index = DeserializeClustering(index_derived);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->clusters.assignments, (std::vector<int>{1, 0, 1, 0}));
  EXPECT_EQ(index->representatives, (std::vector<size_t>{3, 0}));
  EXPECT_EQ(index->options.num_clusters, 2);
  EXPECT_EQ(index->distances.rows(), 0u);

  // The dropped fields are still range-checked.
  for (const char* options : {"2 0 5 0 0.085 42", "0 2 5 0 0.085 42",
                              "0 -1 5 0 0.085 42", "0 0 5 0 0.085 x"}) {
    const Status status =
        DeserializeClustering(std::string("tps-model-clustering v1\n3 2\n") +
                              options + "\n0 0 1 \n1 2 \n0\n")
            .status();
    EXPECT_TRUE(status.IsInvalidArgument()) << options;
    EXPECT_EQ(status.message(), "bad clustering options") << options;
  }
}

TEST_F(ClusteringPersistenceTest, LoadRejectsCorruptInput) {
  EXPECT_TRUE(
      DeserializeClustering("wrong header\n").status().IsInvalidArgument());
  // More clusters than models.
  EXPECT_TRUE(DeserializeClustering("tps-model-clustering v1\n5 9\n")
                  .status()
                  .IsInvalidArgument());
  // An assignment outside the cluster range.
  EXPECT_TRUE(DeserializeClustering(
                  "tps-model-clustering v1\n2 2\n0 0 5 0 0.1 42\n0 7\n")
                  .status()
                  .IsInvalidArgument());

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
  // Non-finite numbers are not numbers to the codec, in the options and
  // in the distances.
  for (const std::string bad : {"nan", "inf", "-inf"}) {
    expect_rejected("tps-model-clustering v2\n2 1\n5 0 " + bad +
                        "\n0 0 \n1 \n0\n",
                    "bad clustering options");
    expect_rejected("tps-model-clustering v2\n2 1\n5 0 0.085\n0 0 \n1 \n"
                    "2\n0 " + bad + " \n0.25 0 \n",
                    "truncated distances");
  }
  // A real clustering cut inside its distances.
  const std::string full = SerializeClustering(*clustering_);
  expect_rejected(full.substr(0, full.size() - full.size() / 10),
                  "truncated distances");
}

TEST_F(ClusteringPersistenceTest, SaveToUnwritablePathFails) {
  // A clustering persists through the model store; a store under a
  // missing directory cannot be opened for writing.
  EXPECT_TRUE(ModelStore::Open("/no-dir/x.log").status().IsIOError());
}

}  // namespace
}  // namespace tps
