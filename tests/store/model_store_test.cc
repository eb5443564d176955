#include "store/model_store.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "data/registry.h"
#include "model/paper_zoo.h"
#include "sim/finetune_simulator.h"
#include "store/spec_serialization.h"

namespace tps {
namespace {

std::string TempPath(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

TEST(SpecSerializationTest, ModelSpecRoundTrips) {
  const ModelSpec original = NlpPaperZooSpecs()[3];
  auto text = SerializeModelSpec(original);
  ASSERT_TRUE(text.ok());
  auto restored = DeserializeModelSpec(*text);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->name, original.name);
  EXPECT_EQ(restored->domain, original.domain);
  EXPECT_EQ(restored->family, original.family);
  EXPECT_DOUBLE_EQ(restored->scale_millions, original.scale_millions);
  EXPECT_DOUBLE_EQ(restored->capability, original.capability);
  EXPECT_EQ(restored->pretrain_tags, original.pretrain_tags);
  EXPECT_EQ(restored->finetune_tags, original.finetune_tags);
  EXPECT_DOUBLE_EQ(restored->finetune_strength,
                   original.finetune_strength);
  EXPECT_EQ(restored->num_source_labels, original.num_source_labels);
  EXPECT_EQ(restored->description, original.description);
}

TEST(SpecSerializationTest, RoundTrippedSpecBuildsIdenticalModel) {
  const ModelSpec original = CvPaperZooSpecs()[7];
  auto restored = *DeserializeModelSpec(*SerializeModelSpec(original));
  auto model_a = *PretrainedModel::Create(original);
  auto model_b = *PretrainedModel::Create(restored);
  EXPECT_EQ(model_a.affinity(), model_b.affinity());
  EXPECT_DOUBLE_EQ(model_a.capability(), model_b.capability());
}

TEST(SpecSerializationTest, DatasetSpecRoundTrips) {
  const DatasetSpec original = NlpTargetSpecs()[1];  // mnli, has overrides.
  auto restored = *DeserializeDatasetSpec(*SerializeDatasetSpec(original));
  EXPECT_EQ(restored.name, original.name);
  EXPECT_EQ(restored.role, original.role);
  EXPECT_EQ(restored.num_labels, original.num_labels);
  EXPECT_EQ(restored.tags, original.tags);
  EXPECT_DOUBLE_EQ(restored.chance_accuracy, original.chance_accuracy);
  EXPECT_DOUBLE_EQ(restored.ceiling_accuracy, original.ceiling_accuracy);
  // The rebuilt dataset is byte-identical.
  auto ds_a = *Dataset::Create(original);
  auto ds_b = *Dataset::Create(restored);
  EXPECT_EQ(ds_a.domain_vector(), ds_b.domain_vector());
}

TEST(SpecSerializationTest, RejectsGarbage) {
  EXPECT_TRUE(DeserializeModelSpec("nonsense").status().IsInvalidArgument());
  EXPECT_TRUE(
      DeserializeDatasetSpec("nonsense").status().IsInvalidArgument());
  ModelSpec bad = NlpPaperZooSpecs()[0];
  bad.description = "has\ttab";
  EXPECT_TRUE(SerializeModelSpec(bad).status().IsInvalidArgument());
}

TEST(ModelStoreTest, CatalogWorkflow) {
  auto store = std::move(ModelStore::Open(TempPath("model_store.log"))).value();

  // Register the NLP zoo and two datasets.
  for (const ModelSpec& spec : NlpPaperZooSpecs()) {
    ASSERT_TRUE(store.PutModelSpec(spec).ok());
  }
  ASSERT_TRUE(store.PutDatasetSpec(NlpBenchmarkSpecs()[0]).ok());
  ASSERT_TRUE(store.PutDatasetSpec(NlpTargetSpecs()[0]).ok());

  EXPECT_EQ(store.ListModels().size(), 40u);
  EXPECT_EQ(store.ListDatasets().size(), 2u);
  auto spec = store.GetModelSpec("roberta-base");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->family, "roberta");
}

TEST(ModelStoreTest, OfflineArtifactsRoundTripThroughStore) {
  const std::string path = TempPath("model_store_artifacts.log");
  auto registry = *DatasetRegistry::CreatePaperInventory();
  auto zoo = *ModelZoo::Create(CvPaperZooSpecs());
  FineTuneSimulator simulator;
  auto matrix = *PerformanceMatrix::Build(
      zoo, registry.Benchmarks(TaskDomain::kCV), simulator,
      Hyperparams::DefaultsFor(TaskDomain::kCV));
  auto clustering = *ClusterModels(matrix, zoo, ModelClusteringOptions());

  {
    auto store = std::move(ModelStore::Open(path)).value();
    ASSERT_TRUE(store.PutPerformanceMatrix("cv-v1", matrix).ok());
    ASSERT_TRUE(store.PutClustering("cv-v1", clustering).ok());
  }

  // Reopen (fresh process) and verify full fidelity.
  auto store = std::move(ModelStore::Open(path)).value();
  auto matrix2 = store.GetPerformanceMatrix("cv-v1");
  ASSERT_TRUE(matrix2.ok()) << matrix2.status().ToString();
  EXPECT_TRUE(matrix2->accuracy().ApproxEquals(matrix.accuracy()));
  EXPECT_EQ(matrix2->model_names(), matrix.model_names());

  auto clustering2 = store.GetClustering("cv-v1");
  ASSERT_TRUE(clustering2.ok());
  EXPECT_EQ(clustering2->clusters.assignments,
            clustering.clusters.assignments);
  EXPECT_EQ(clustering2->representatives, clustering.representatives);

  EXPECT_TRUE(store.GetPerformanceMatrix("absent").status().IsNotFound());
  EXPECT_TRUE(store.GetClustering("absent").status().IsNotFound());
}

TEST(ModelStoreTest, CompactionPreservesCatalog) {
  const std::string path = TempPath("model_store_compact.log");
  auto store = std::move(ModelStore::Open(path)).value();
  for (int round = 0; round < 5; ++round) {
    for (const ModelSpec& spec : CvPaperZooSpecs()) {
      ASSERT_TRUE(store.PutModelSpec(spec).ok());  // Repeated overwrites.
    }
  }
  ASSERT_TRUE(store.Compact().ok());
  EXPECT_EQ(store.ListModels().size(), 30u);
  auto reopened = std::move(ModelStore::Open(path)).value();
  EXPECT_EQ(reopened.ListModels().size(), 30u);
}

TEST(ModelStoreTest, EmptyIdsRejected) {
  auto store = std::move(ModelStore::Open(TempPath("model_store_ids.log"))).value();
  ModelSpec nameless;
  EXPECT_TRUE(store.PutModelSpec(nameless).IsInvalidArgument());
  DatasetSpec nameless_ds;
  EXPECT_TRUE(store.PutDatasetSpec(nameless_ds).IsInvalidArgument());
}

}  // namespace
}  // namespace tps
