#include "model/pretrained_model.h"

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "matrix/vector_ops.h"
#include "model/model_card.h"
#include "model/zoo.h"
#include "util/string_util.h"
#include "util/test_helpers.h"

namespace tps {
namespace {

ModelSpec ValidModelSpec(const std::string& name = "org/test-model") {
  ModelSpec spec;
  spec.name = name;
  spec.domain = TaskDomain::kNLP;
  spec.family = "bert";
  spec.capability = 0.6;
  spec.pretrain_tags = {"english", "books"};
  spec.finetune_tags = {"english", "nli"};
  spec.num_source_labels = 3;
  return spec;
}

DatasetSpec ValidDatasetSpec(const std::string& name = "test-target") {
  DatasetSpec spec;
  spec.name = name;
  spec.num_labels = 3;
  spec.tags = {"english", "nli"};
  spec.num_examples = 90;
  return spec;
}

TEST(PretrainedModelTest, CreateValidatesSpec) {
  ModelSpec spec = ValidModelSpec();
  spec.name = "";
  EXPECT_TRUE(PretrainedModel::Create(spec).status().IsInvalidArgument());

  spec = ValidModelSpec();
  spec.capability = 0.0;
  EXPECT_TRUE(PretrainedModel::Create(spec).status().IsInvalidArgument());
  spec.capability = 1.0;
  EXPECT_TRUE(PretrainedModel::Create(spec).status().IsInvalidArgument());

  spec = ValidModelSpec();
  spec.num_source_labels = 1;
  EXPECT_TRUE(PretrainedModel::Create(spec).status().IsInvalidArgument());

  spec = ValidModelSpec();
  spec.finetune_strength = -0.1;
  EXPECT_TRUE(PretrainedModel::Create(spec).status().IsInvalidArgument());
}

TEST(PretrainedModelTest, AffinityIsUnitNormAndDeterministic) {
  auto a = *PretrainedModel::Create(ValidModelSpec());
  auto b = *PretrainedModel::Create(ValidModelSpec());
  EXPECT_EQ(a.affinity(), b.affinity());
  EXPECT_NEAR(vec::Norm(a.affinity()), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(a.capability(), b.capability());
}

TEST(PretrainedModelTest, CapabilityJitterStaysNearSpec) {
  auto m = *PretrainedModel::Create(ValidModelSpec());
  EXPECT_NEAR(m.capability(), 0.6, 0.1);
}

TEST(PretrainedModelTest, SameLineageModelsHaveSimilarAffinity) {
  auto a = *PretrainedModel::Create(ValidModelSpec("org/model-a"));
  auto b = *PretrainedModel::Create(ValidModelSpec("org/model-b"));
  ModelSpec other = ValidModelSpec("org/model-c");
  other.finetune_tags = {"arabic", "poetry"};
  other.pretrain_tags = {"arabic", "web"};
  auto c = *PretrainedModel::Create(other);

  const double same_lineage = vec::CosineSimilarity(a.affinity(),
                                                    b.affinity());
  const double cross_lineage = vec::CosineSimilarity(a.affinity(),
                                                     c.affinity());
  EXPECT_GT(same_lineage, 0.9);
  EXPECT_LT(cross_lineage, same_lineage - 0.2);
}

TEST(PretrainedModelTest, FinetuneRaisesAlignmentWithMatchingDataset) {
  ModelSpec base_spec = ValidModelSpec("org/base");
  base_spec.finetune_tags.clear();
  auto base = *PretrainedModel::Create(base_spec);
  auto tuned = *PretrainedModel::Create(ValidModelSpec("org/tuned"));
  auto target = *Dataset::Create(ValidDatasetSpec());
  EXPECT_GT(tuned.DomainCosine(target), base.DomainCosine(target));
}

TEST(PretrainedModelTest, PredictDistributionsAreRowStochastic) {
  auto model = *PretrainedModel::Create(ValidModelSpec());
  auto target = *Dataset::Create(ValidDatasetSpec());
  auto predictions = model.PredictDistributions(target);
  ASSERT_TRUE(predictions.ok());
  EXPECT_EQ(predictions->rows(), target.size());
  EXPECT_EQ(predictions->cols(), 3u);
  for (size_t i = 0; i < predictions->rows(); ++i) {
    double row_sum = 0.0;
    for (size_t z = 0; z < predictions->cols(); ++z) {
      const double p = predictions->At(i, z);
      ASSERT_GE(p, 0.0);
      ASSERT_LE(p, 1.0);
      row_sum += p;
    }
    EXPECT_NEAR(row_sum, 1.0, 1e-9);
  }
}

TEST(PretrainedModelTest, DomainMismatchIsRejected) {
  auto model = *PretrainedModel::Create(ValidModelSpec());
  DatasetSpec cv_spec = ValidDatasetSpec("cv-ds");
  cv_spec.domain = TaskDomain::kCV;
  auto cv_dataset = *Dataset::Create(cv_spec);
  EXPECT_TRUE(
      model.PredictDistributions(cv_dataset).status().IsInvalidArgument());
  EXPECT_TRUE(
      model.ExtractFeatures(cv_dataset).status().IsInvalidArgument());
}

TEST(PretrainedModelTest, FeaturesAreSoftmaxConsistentWithPredictions) {
  auto model = *PretrainedModel::Create(ValidModelSpec());
  auto target = *Dataset::Create(ValidDatasetSpec());
  auto features = *model.ExtractFeatures(target);
  auto predictions = *model.PredictDistributions(target);
  for (size_t i = 0; i < 5; ++i) {
    const std::vector<double> probs = vec::Softmax(features.Row(i));
    for (size_t z = 0; z < probs.size(); ++z) {
      EXPECT_NEAR(probs[z], predictions.At(i, z), 1e-12);
    }
  }
}

TEST(PretrainedModelTest, AlignedModelSeparatesClassesMore) {
  // The class-separation mechanism: an aligned, capable model's features
  // should distinguish target classes more than a misaligned one's.
  auto aligned = *PretrainedModel::Create(ValidModelSpec("org/aligned"));
  ModelSpec far_spec = ValidModelSpec("org/far");
  far_spec.pretrain_tags = {"arabic", "web"};
  far_spec.finetune_tags = {"arabic", "poetry"};
  far_spec.capability = 0.3;
  auto misaligned = *PretrainedModel::Create(far_spec);
  auto target = *Dataset::Create(ValidDatasetSpec());

  auto consistency = [&](const PretrainedModel& model) {
    auto predictions = *model.PredictDistributions(target);
    // Fraction of examples whose argmax source label equals the majority
    // argmax of their class.
    std::vector<std::vector<int>> votes(3, std::vector<int>(3, 0));
    for (size_t i = 0; i < target.size(); ++i) {
      size_t best = 0;
      for (size_t z = 1; z < 3; ++z) {
        if (predictions.At(i, z) > predictions.At(i, best)) best = z;
      }
      ++votes[static_cast<size_t>(target.examples()[i].label)][best];
    }
    int agree = 0;
    for (const auto& row : votes) {
      agree += *std::max_element(row.begin(), row.end());
    }
    return static_cast<double>(agree) / static_cast<double>(target.size());
  };
  EXPECT_GT(consistency(aligned), consistency(misaligned));
}

TEST(ModelCardTest, CardMentionsIdentityAndLineage) {
  const std::string card = GenerateModelCard(ValidModelSpec());
  EXPECT_TRUE(strings::Contains(card, "org/test-model"));
  EXPECT_TRUE(strings::Contains(card, "bert"));
  EXPECT_TRUE(strings::Contains(card, "nli"));
  EXPECT_TRUE(strings::Contains(card, "NLP"));
}

TEST(ModelCardTest, BaseModelCardSaysNoFinetune) {
  ModelSpec spec = ValidModelSpec();
  spec.finetune_tags.clear();
  EXPECT_TRUE(strings::Contains(GenerateModelCard(spec),
                                "without task-specific fine-tuning"));
}

TEST(ModelZooTest, CreateAndLookup) {
  auto zoo = ModelZoo::Create(
      {ValidModelSpec("org/a"), ValidModelSpec("org/b")});
  ASSERT_TRUE(zoo.ok());
  EXPECT_EQ(zoo->size(), 2u);
  EXPECT_EQ(*zoo->IndexOf("org/b"), 1u);
  EXPECT_EQ((*zoo->Find("org/a"))->name(), "org/a");
  EXPECT_TRUE(zoo->IndexOf("org/missing").status().IsNotFound());
}

TEST(ModelZooTest, RejectsDuplicates) {
  auto zoo =
      ModelZoo::Create({ValidModelSpec("org/a"), ValidModelSpec("org/a")});
  EXPECT_TRUE(zoo.status().IsAlreadyExists());
}

}  // namespace
}  // namespace tps
