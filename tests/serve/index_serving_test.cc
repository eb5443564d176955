#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "core/model_clusterer.h"
#include "index/ivf_index.h"
#include "serve/artifacts.h"
#include "serve/service.h"

namespace tps {
namespace serve {
namespace {

// End-to-end indexed serving: the published ServiceArtifacts carry an
// IvfIndex, requests route through it (reporting the backend), nprobe
// bounds the proxy cost, and a hot Reload can introduce an index to a
// running service.

ServiceArtifacts BuildArtifacts(bool with_index) {
  auto artifacts = ServiceArtifacts::Build(TaskDomain::kNLP);
  EXPECT_TRUE(artifacts.ok()) << artifacts.status().message();
  if (!with_index) return *std::move(artifacts);

  IvfIndexOptions options;
  options.propagation_neighbors = 0;  // Exact propagation: the paper zoo
                                      // is small, so serve it exactly.
  auto index = IvfIndex::Build(artifacts->matrix.ModelVectors(),
                               artifacts->matrix.ModelAverageAccuracies(),
                               options);
  EXPECT_TRUE(index.ok()) << index.status().message();
  // The index partitioning doubles as the serving clustering, so the
  // exact index over it ranks the same partitions the IVF probes.
  auto clustering = ClusteringFromIndexStructure(index->structure());
  EXPECT_TRUE(clustering.ok()) << clustering.status().message();
  artifacts->clustering = *std::move(clustering);
  artifacts->index = std::make_shared<const IvfIndex>(*std::move(index));
  EXPECT_TRUE(artifacts->Validate().ok());
  return *std::move(artifacts);
}

ServiceOptions LightOptions() {
  ServiceOptions options;
  options.worker_threads = 0;  // Handle() only — no queue draining needed.
  return options;
}

TEST(IndexServingTest, ResponsesReportTheIndexBackend) {
  auto service = SelectionService::Create(BuildArtifacts(true),
                                          LightOptions());
  ASSERT_TRUE(service.ok()) << service.status().message();
  SelectionRequest request;
  request.target = "mnli";
  const SelectionResponse response = (*service)->Handle(request);
  ASSERT_TRUE(response.status.ok()) << response.status.message();
  EXPECT_EQ(response.index_backend, "ivf");
  EXPECT_FALSE(response.selected_model.empty());
}

TEST(IndexServingTest, NprobeBoundsTheProxyCost) {
  auto service = SelectionService::Create(BuildArtifacts(true),
                                          LightOptions());
  ASSERT_TRUE(service.ok()) << service.status().message();

  SelectionRequest narrow;
  narrow.target = "mnli";
  narrow.nprobe = 2;
  const SelectionResponse narrow_response = (*service)->Handle(narrow);
  ASSERT_TRUE(narrow_response.status.ok())
      << narrow_response.status.message();

  SelectionRequest full = narrow;
  full.nprobe = 1000000;
  const SelectionResponse full_response = (*service)->Handle(full);
  ASSERT_TRUE(full_response.status.ok()) << full_response.status.message();

  // Fewer probed partitions -> fewer proxy forward passes charged.
  EXPECT_LT(narrow_response.inference_epochs,
            full_response.inference_epochs);
}

TEST(IndexServingTest, IndexFreeArtifactsIgnoreTheRequestFlag) {
  auto service = SelectionService::Create(BuildArtifacts(false),
                                          LightOptions());
  ASSERT_TRUE(service.ok()) << service.status().message();
  SelectionRequest request;
  request.target = "mnli";
  // No index published: served through the exact index over the
  // clustering, not an error.
  const SelectionResponse response = (*service)->Handle(request);
  ASSERT_TRUE(response.status.ok()) << response.status.message();
  EXPECT_TRUE(response.index_backend.empty());
}

TEST(IndexServingTest, ReloadIntroducesAnIndexWithoutRestart) {
  auto service = SelectionService::Create(BuildArtifacts(false),
                                          LightOptions());
  ASSERT_TRUE(service.ok()) << service.status().message();
  SelectionRequest request;
  request.target = "mnli";

  const SelectionResponse before = (*service)->Handle(request);
  ASSERT_TRUE(before.status.ok());
  EXPECT_TRUE(before.index_backend.empty());
  EXPECT_EQ(before.artifact_version, 1u);

  ASSERT_TRUE((*service)->Reload(BuildArtifacts(true)).ok());

  const SelectionResponse after = (*service)->Handle(request);
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.index_backend, "ivf");
  EXPECT_EQ(after.artifact_version, 2u);
}

}  // namespace
}  // namespace serve
}  // namespace tps
