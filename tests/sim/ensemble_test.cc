#include "bench/lib/ensemble.h"

#include <gtest/gtest.h>

#include "core/evaluation.h"
#include "data/registry.h"
#include "model/paper_zoo.h"

namespace tps {
namespace {

class EnsembleTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new ModelZoo(*ModelZoo::Create(NlpPaperZooSpecs()));
    registry_ =
        new DatasetRegistry(*DatasetRegistry::CreatePaperInventory());
    simulator_ = new FineTuneSimulator();
    target_ = *registry_->Find("mnli");
    hp_ = Hyperparams::DefaultsFor(TaskDomain::kNLP);
    truth_ = new std::vector<double>(
        *TrueFinalAccuracies(*zoo_, *target_, *simulator_, hp_));
  }

  static ModelZoo* zoo_;
  static DatasetRegistry* registry_;
  static FineTuneSimulator* simulator_;
  static const Dataset* target_;
  static Hyperparams hp_;
  static std::vector<double>* truth_;
};

ModelZoo* EnsembleTest::zoo_ = nullptr;
DatasetRegistry* EnsembleTest::registry_ = nullptr;
FineTuneSimulator* EnsembleTest::simulator_ = nullptr;
const Dataset* EnsembleTest::target_ = nullptr;
Hyperparams EnsembleTest::hp_;
std::vector<double>* EnsembleTest::truth_ = nullptr;

TEST_F(EnsembleTest, SingleMemberMatchesItsOwnAccuracy) {
  const size_t best = BestModel(*truth_);
  auto result = EvaluateEnsemble(*zoo_, {best}, *target_, *simulator_, hp_);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->ensemble_accuracy, (*truth_)[best], 0.03);
  EXPECT_DOUBLE_EQ(result->mean_member_similarity, 1.0);
  ASSERT_EQ(result->member_accuracies.size(), 1u);
  EXPECT_DOUBLE_EQ(result->member_accuracies[0], (*truth_)[best]);
}

TEST_F(EnsembleTest, TopThreeEnsembleBeatsItsMeanMember) {
  const std::vector<size_t> top3 = TopKByAccuracy(*truth_, 3);
  auto result =
      EvaluateEnsemble(*zoo_, top3, *target_, *simulator_, hp_);
  ASSERT_TRUE(result.ok());
  const double mean_member =
      MeanAt(*truth_, top3);
  EXPECT_GT(result->ensemble_accuracy, mean_member - 0.01);
}

TEST_F(EnsembleTest, DiverseMembersGainMoreThanClones) {
  // Three near-identical QQP siblings vs three strong-but-diverse models.
  const size_t a = *zoo_->IndexOf("Jeevesh8/bert_ft_qqp-68");
  const size_t b = *zoo_->IndexOf("Jeevesh8/bert_ft_qqp-9");
  const size_t c = *zoo_->IndexOf("Jeevesh8/bert_ft_qqp-40");
  auto clones =
      *EvaluateEnsemble(*zoo_, {a, b, c}, *target_, *simulator_, hp_);

  const std::vector<size_t> top3 = TopKByAccuracy(*truth_, 3);
  auto diverse =
      *EvaluateEnsemble(*zoo_, top3, *target_, *simulator_, hp_);

  EXPECT_GT(clones.mean_member_similarity, 0.9);
  // Clone ensembles cannot rise far above their members.
  const double clone_gain =
      clones.ensemble_accuracy - MeanAt(*truth_, {a, b, c});
  EXPECT_LT(clone_gain, 0.05);
  // Quality sanity: the diverse top-3 ensemble is clearly better.
  EXPECT_GT(diverse.ensemble_accuracy, clones.ensemble_accuracy);
}

TEST_F(EnsembleTest, DeterministicForSameOptions) {
  const std::vector<size_t> top3 = TopKByAccuracy(*truth_, 3);
  auto a = *EvaluateEnsemble(*zoo_, top3, *target_, *simulator_, hp_);
  auto b = *EvaluateEnsemble(*zoo_, top3, *target_, *simulator_, hp_);
  EXPECT_DOUBLE_EQ(a.ensemble_accuracy, b.ensemble_accuracy);
}

TEST_F(EnsembleTest, InputValidation) {
  EXPECT_TRUE(EvaluateEnsemble(*zoo_, {}, *target_, *simulator_, hp_)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(EvaluateEnsemble(*zoo_, {999}, *target_, *simulator_, hp_)
                  .status()
                  .IsOutOfRange());
  EnsembleOptions bad;
  bad.num_examples = 0;
  EXPECT_TRUE(EvaluateEnsemble(*zoo_, {0}, *target_, *simulator_, hp_, bad)
                  .status()
                  .IsInvalidArgument());
  bad.num_examples = 10;
  bad.shared_difficulty_weight = 1.5;
  EXPECT_TRUE(EvaluateEnsemble(*zoo_, {0}, *target_, *simulator_, hp_, bad)
                  .status()
                  .IsInvalidArgument());
}

class EnsembleSizeTest : public EnsembleTest,
                         public testing::WithParamInterface<size_t> {};

TEST_P(EnsembleSizeTest, MarginalAccuracyIsBounded) {
  // Property: for any odd committee of the top-k models, the ensemble is
  // at least roughly as good as its median member and at most 1.0.
  const size_t k = GetParam();
  const std::vector<size_t> members = TopKByAccuracy(*truth_, k);
  auto result =
      *EvaluateEnsemble(*zoo_, members, *target_, *simulator_, hp_);
  const double worst_member = (*truth_)[members.back()];
  EXPECT_GE(result.ensemble_accuracy, worst_member - 0.05);
  EXPECT_LE(result.ensemble_accuracy, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Committees, EnsembleSizeTest,
                         testing::Values(1, 3, 5, 7, 9));

}  // namespace
}  // namespace tps
