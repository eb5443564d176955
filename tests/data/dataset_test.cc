#include "data/dataset.h"

#include <set>

#include <gtest/gtest.h>

#include "bench/lib/bench_util.h"
#include "data/latent.h"
#include "data/registry.h"
#include "matrix/vector_ops.h"

namespace tps {
namespace {

DatasetSpec ValidSpec() {
  DatasetSpec spec;
  spec.name = "test-ds";
  spec.num_labels = 3;
  spec.difficulty = 0.4;
  spec.tags = {"english", "nli"};
  spec.num_examples = 60;
  return spec;
}

TEST(DatasetTest, CreateValidatesSpec) {
  DatasetSpec spec = ValidSpec();
  spec.name = "";
  EXPECT_TRUE(Dataset::Create(spec).status().IsInvalidArgument());

  spec = ValidSpec();
  spec.num_labels = 1;
  EXPECT_TRUE(Dataset::Create(spec).status().IsInvalidArgument());

  spec = ValidSpec();
  spec.num_examples = 0;
  EXPECT_TRUE(Dataset::Create(spec).status().IsInvalidArgument());

  spec = ValidSpec();
  spec.difficulty = 1.5;
  EXPECT_TRUE(Dataset::Create(spec).status().IsInvalidArgument());
}

TEST(DatasetTest, GeneratesRequestedExamples) {
  auto ds = Dataset::Create(ValidSpec());
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size(), 60u);
  EXPECT_EQ(ds->name(), "test-ds");
}

TEST(DatasetTest, RoundRobinLabelsCoverAllClasses) {
  auto ds = *Dataset::Create(ValidSpec());
  std::vector<int> counts(3, 0);
  for (const Example& ex : ds.examples()) {
    ASSERT_GE(ex.label, 0);
    ASSERT_LT(ex.label, 3);
    ++counts[static_cast<size_t>(ex.label)];
  }
  EXPECT_EQ(counts[0], 20);
  EXPECT_EQ(counts[1], 20);
  EXPECT_EQ(counts[2], 20);
}

TEST(DatasetTest, ExamplesAreUnitNorm) {
  auto ds = *Dataset::Create(ValidSpec());
  for (const Example& ex : ds.examples()) {
    EXPECT_NEAR(vec::Norm(ex.features), 1.0, 1e-9);
  }
}

TEST(DatasetTest, DeterministicByName) {
  auto a = *Dataset::Create(ValidSpec());
  auto b = *Dataset::Create(ValidSpec());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.examples()[i].features, b.examples()[i].features);
  }
  EXPECT_EQ(a.domain_vector(), b.domain_vector());
}

TEST(DatasetTest, DifferentNamesDiffer) {
  DatasetSpec other = ValidSpec();
  other.name = "other-ds";
  auto a = *Dataset::Create(ValidSpec());
  auto b = *Dataset::Create(other);
  EXPECT_NE(a.domain_vector(), b.domain_vector());
}

TEST(DatasetTest, SameClassExamplesAreCloserThanCrossClass) {
  auto ds = *Dataset::Create(ValidSpec());
  double same = 0.0, cross = 0.0;
  int same_n = 0, cross_n = 0;
  for (size_t i = 0; i < ds.size(); ++i) {
    for (size_t j = i + 1; j < ds.size(); ++j) {
      const double cos = vec::CosineSimilarity(ds.examples()[i].features,
                                               ds.examples()[j].features);
      if (ds.examples()[i].label == ds.examples()[j].label) {
        same += cos;
        ++same_n;
      } else {
        cross += cos;
        ++cross_n;
      }
    }
  }
  EXPECT_GT(same / same_n, cross / cross_n + 0.1);
}

TEST(DatasetTest, LabelPrototypesAreDistinctUnitVectors) {
  // A dataset's label y is built around latent::LabelVector(seed, y).
  auto ds = *Dataset::Create(ValidSpec());
  for (int y = 0; y < 3; ++y) {
    EXPECT_NEAR(vec::Norm(latent::LabelVector(ds.seed(), y)), 1.0, 1e-12);
  }
  EXPECT_NE(latent::LabelVector(ds.seed(), 0),
            latent::LabelVector(ds.seed(), 1));
}

TEST(DatasetSpecTest, EffectiveChanceAndCeilingDefaults) {
  DatasetSpec spec = ValidSpec();
  EXPECT_NEAR(spec.EffectiveChance(), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(spec.EffectiveCeiling(), 0.99 - 0.30 * 0.4, 1e-12);
  spec.chance_accuracy = 0.6;
  spec.ceiling_accuracy = 0.8;
  EXPECT_DOUBLE_EQ(spec.EffectiveChance(), 0.6);
  EXPECT_DOUBLE_EQ(spec.EffectiveCeiling(), 0.8);
}

TEST(RegistryTest, PaperInventoryCounts) {
  auto registry = DatasetRegistry::CreatePaperInventory();
  ASSERT_TRUE(registry.ok());
  EXPECT_EQ(registry->Benchmarks(TaskDomain::kNLP).size(), 24u);
  EXPECT_EQ(Targets(*registry, TaskDomain::kNLP).size(), 4u);
  EXPECT_EQ(registry->Benchmarks(TaskDomain::kCV).size(), 10u);
  EXPECT_EQ(Targets(*registry, TaskDomain::kCV).size(), 4u);
  EXPECT_EQ(registry->size(), 42u);
}

TEST(RegistryTest, BenchmarkAndTargetSetsAreDisjoint) {
  auto registry = *DatasetRegistry::CreatePaperInventory();
  for (TaskDomain domain : {TaskDomain::kNLP, TaskDomain::kCV}) {
    std::set<std::string> benchmarks;
    for (const Dataset* d : registry.Benchmarks(domain)) {
      benchmarks.insert(d->name());
    }
    for (const Dataset* d : Targets(registry, domain)) {
      EXPECT_EQ(benchmarks.count(d->name()), 0u) << d->name();
    }
  }
}

TEST(RegistryTest, FindByName) {
  auto registry = *DatasetRegistry::CreatePaperInventory();
  auto mnli = registry.Find("mnli");
  ASSERT_TRUE(mnli.ok());
  EXPECT_EQ((*mnli)->spec().role, DatasetRole::kTarget);
  EXPECT_EQ((*mnli)->spec().num_labels, 3);
  EXPECT_TRUE(registry.Find("no-such-dataset").status().IsNotFound());
}

TEST(RegistryTest, RejectsDuplicateNames) {
  std::vector<DatasetSpec> specs = {ValidSpec(), ValidSpec()};
  EXPECT_TRUE(DatasetRegistry::Create(specs).status().IsAlreadyExists());
}

TEST(RegistryTest, ManyLabelDatasetsGetEnoughExamples) {
  auto registry = *DatasetRegistry::CreatePaperInventory();
  auto cub = *registry.Find("cub_birds");
  EXPECT_GE(static_cast<int>(cub->size()), 4 * cub->spec().num_labels);
}

TEST(RegistryTest, DomainToStringNames) {
  EXPECT_EQ(ToString(TaskDomain::kNLP), "NLP");
  EXPECT_EQ(ToString(TaskDomain::kCV), "CV");
  EXPECT_EQ(ToString(DatasetRole::kBenchmark), "benchmark");
  EXPECT_EQ(ToString(DatasetRole::kTarget), "target");
}

}  // namespace
}  // namespace tps
