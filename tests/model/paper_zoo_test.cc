#include "model/paper_zoo.h"

#include <cstdio>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "model/zoo.h"
#include "serve/artifacts.h"
#include "store/model_store.h"
#include "util/string_util.h"

namespace tps {
namespace {

TEST(PaperZooTest, NlpZooHas40UniqueValidModels) {
  const std::vector<ModelSpec> specs = NlpPaperZooSpecs();
  EXPECT_EQ(specs.size(), 40u);
  std::set<std::string> names;
  for (const ModelSpec& spec : specs) {
    EXPECT_EQ(spec.domain, TaskDomain::kNLP);
    EXPECT_GT(spec.capability, 0.0);
    EXPECT_LT(spec.capability, 1.0);
    EXPECT_GE(spec.num_source_labels, 2);
    EXPECT_FALSE(spec.pretrain_tags.empty()) << spec.name;
    names.insert(spec.name);
  }
  EXPECT_EQ(names.size(), 40u);
  auto zoo = ModelZoo::Create(specs);
  EXPECT_TRUE(zoo.ok()) << zoo.status().ToString();
}

TEST(PaperZooTest, CvZooHas30UniqueValidModels) {
  const std::vector<ModelSpec> specs = CvPaperZooSpecs();
  EXPECT_EQ(specs.size(), 30u);
  std::set<std::string> names;
  for (const ModelSpec& spec : specs) {
    EXPECT_EQ(spec.domain, TaskDomain::kCV);
    names.insert(spec.name);
  }
  EXPECT_EQ(names.size(), 30u);
  EXPECT_TRUE(ModelZoo::Create(specs).ok());
}

TEST(PaperZooTest, ContainsHeadlineModels) {
  auto zoo = *ModelZoo::Create(NlpPaperZooSpecs());
  EXPECT_TRUE(zoo.Find("bert-base-uncased").ok());
  EXPECT_TRUE(zoo.Find("roberta-base").ok());
  EXPECT_TRUE(zoo.Find("ishan/bert-base-uncased-mnli").ok());
  auto cv = *ModelZoo::Create(CvPaperZooSpecs());
  EXPECT_TRUE(cv.Find("google/vit-base-patch16-224").ok());
  EXPECT_TRUE(cv.Find("microsoft/beit-base-patch16-224").ok());
}

TEST(PaperZooTest, QqpLineageSharesTags) {
  const std::vector<ModelSpec> specs = NlpPaperZooSpecs();
  std::vector<const ModelSpec*> qqp;
  for (const ModelSpec& spec : specs) {
    if (strings::Contains(spec.name, "bert_ft_qqp") &&
        !strings::Contains(spec.name, "init")) {
      qqp.push_back(&spec);
    }
  }
  ASSERT_GE(qqp.size(), 4u);
  for (const ModelSpec* spec : qqp) {
    EXPECT_EQ(spec->finetune_tags, qqp[0]->finetune_tags) << spec->name;
  }
}

TEST(PaperZooTest, InitLineageIsWeakerThanTrainedLineage) {
  const std::vector<ModelSpec> specs = NlpPaperZooSpecs();
  double init_cap = 1.0, trained_cap = 0.0;
  for (const ModelSpec& spec : specs) {
    if (strings::Contains(spec.name, "init_bert_ft_qqp")) {
      init_cap = std::min(init_cap, spec.capability);
    }
    if (spec.name == "Jeevesh8/bert_ft_qqp-68") {
      trained_cap = spec.capability;
    }
  }
  EXPECT_LT(init_cap, trained_cap - 0.1);
}

TEST(SyntheticZooTest, GeneratesRequestedCountDeterministically) {
  const auto a = SyntheticZooSpecs(TaskDomain::kNLP, 50, 7);
  const auto b = SyntheticZooSpecs(TaskDomain::kNLP, 50, 7);
  const auto c = SyntheticZooSpecs(TaskDomain::kNLP, 50, 8);
  EXPECT_EQ(a.size(), 50u);
  ASSERT_EQ(b.size(), 50u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_DOUBLE_EQ(a[i].capability, b[i].capability);
  }
  bool any_differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].capability != c[i].capability || a[i].family != c[i].family) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);
}

TEST(SyntheticZooTest, SpecsMaterialize) {
  for (TaskDomain domain : {TaskDomain::kNLP, TaskDomain::kCV}) {
    auto zoo = ModelZoo::Create(SyntheticZooSpecs(domain, 120, 3));
    ASSERT_TRUE(zoo.ok()) << zoo.status().ToString();
    EXPECT_EQ(zoo->size(), 120u);
  }
}

TEST(SyntheticZooTest, CapabilitiesSkewLow) {
  const auto specs = SyntheticZooSpecs(TaskDomain::kCV, 500, 21);
  int strong = 0;
  for (const ModelSpec& spec : specs) {
    ASSERT_GE(spec.capability, 0.3);
    ASSERT_LE(spec.capability, 0.9);
    if (spec.capability > 0.7) ++strong;
  }
  // The Fig. 1 shape: strong models are a minority.
  EXPECT_LT(strong, 200);
  EXPECT_GT(strong, 10);
}

TEST(ZooSharingTest, DefaultAndMovedFromZoosAreEmpty) {
  const ModelZoo empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.models().empty());
  EXPECT_TRUE(empty.Find("bert-base-uncased").status().IsNotFound());

  ModelZoo source = *ModelZoo::Create(NlpPaperZooSpecs());
  ModelZoo moved = std::move(source);
  EXPECT_EQ(moved.size(), 40u);
  EXPECT_EQ(source.size(), 0u);
  ModelZoo assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), 40u);
  EXPECT_TRUE(moved.models().empty());
}

TEST(ZooSharingTest, CopiesShareModels) {
  const ModelZoo zoo = *ModelZoo::Create(CvPaperZooSpecs());
  const ModelZoo copy = zoo;
  EXPECT_EQ(&copy.model(0), &zoo.model(0));
  EXPECT_EQ(*copy.Find(zoo.model(3).name()), &zoo.model(3));
}

// The paper zoo and dataset inventory are per process: two loads of the
// same artifacts (and the in-process build) share one set of models and
// datasets rather than each materializing their own.
TEST(ZooSharingTest, PaperZooLoadsShareModels) {
  const auto built = serve::ServiceArtifacts::Build(TaskDomain::kNLP);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  serve::ArtifactPaths paths;
  paths.domain = TaskDomain::kNLP;
  paths.store = testing::TempDir() + "/tps_zoo_sharing_store.log";
  std::remove(paths.store.c_str());
  {
    auto store = ModelStore::Open(paths.store);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(store->PutPerformanceMatrix("nlp", built->matrix).ok());
    ASSERT_TRUE(store->PutClustering("nlp", built->clustering).ok());
  }

  const auto a = serve::ServiceArtifacts::Load(paths);
  const auto b = serve::ServiceArtifacts::Load(paths);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(&a->zoo.model(0), &b->zoo.model(0));
  EXPECT_EQ(&a->zoo.model(0), &built->zoo.model(0));
  EXPECT_EQ(*a->registry.Find("mnli"), *b->registry.Find("mnli"));
  EXPECT_EQ(*a->registry.Find("mnli"), *built->registry.Find("mnli"));
}

}  // namespace
}  // namespace tps
