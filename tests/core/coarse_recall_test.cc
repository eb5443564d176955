#include "core/coarse_recall.h"

#include <gtest/gtest.h>

#include "core/evaluation.h"
#include "data/registry.h"
#include "index/reference_recall.h"
#include "model/paper_zoo.h"
#include "util/rng.h"

namespace tps {
namespace {

class CoarseRecallTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new ModelZoo(*ModelZoo::Create(NlpPaperZooSpecs()));
    registry_ =
        new DatasetRegistry(*DatasetRegistry::CreatePaperInventory());
    simulator_ = new FineTuneSimulator();
    matrix_ = new PerformanceMatrix(*PerformanceMatrix::Build(
        *zoo_, registry_->Benchmarks(TaskDomain::kNLP), *simulator_,
        Hyperparams::DefaultsFor(TaskDomain::kNLP)));
    clustering_ = new ModelClustering(
        *ClusterModels(*matrix_, *zoo_, ModelClusteringOptions()));
    target_ = *registry_->Find("mnli");
  }

  static ModelZoo* zoo_;
  static DatasetRegistry* registry_;
  static FineTuneSimulator* simulator_;
  static PerformanceMatrix* matrix_;
  static ModelClustering* clustering_;
  static const Dataset* target_;
};

ModelZoo* CoarseRecallTest::zoo_ = nullptr;
DatasetRegistry* CoarseRecallTest::registry_ = nullptr;
FineTuneSimulator* CoarseRecallTest::simulator_ = nullptr;
PerformanceMatrix* CoarseRecallTest::matrix_ = nullptr;
ModelClustering* CoarseRecallTest::clustering_ = nullptr;
const Dataset* CoarseRecallTest::target_ = nullptr;

TEST_F(CoarseRecallTest, RanksAllModelsSortedByScore) {
  CoarseRecall recall(zoo_, matrix_, clustering_);
  auto result = recall.Recall(*target_, RecallOptions(), nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ranked.size(), zoo_->size());
  for (size_t i = 1; i < result->ranked.size(); ++i) {
    EXPECT_GE(result->ranked[i - 1].recall_score,
              result->ranked[i].recall_score);
  }
}

TEST_F(CoarseRecallTest, ChargesHalfEpochPerProxy) {
  CoarseRecall recall(zoo_, matrix_, clustering_);
  EpochBudget budget;
  auto result = *recall.Recall(*target_, RecallOptions(), &budget);
  EXPECT_EQ(result.proxies_computed,
            clustering_->NonSingletonClusters().size());
  EXPECT_DOUBLE_EQ(budget.inference_epochs(),
                   0.5 * static_cast<double>(result.proxies_computed));
  EXPECT_DOUBLE_EQ(budget.training_epochs(), 0.0);
}

TEST_F(CoarseRecallTest, SingletonModelsGetPropagatedScores) {
  CoarseRecall recall(zoo_, matrix_, clustering_);
  auto result = *recall.Recall(*target_, RecallOptions(), nullptr);
  for (const RecallEntry& entry : result.ranked) {
    EXPECT_EQ(entry.via_propagation,
              clustering_->IsSingletonModel(entry.model_index));
    EXPECT_GE(entry.proxy_component, 0.0);
    EXPECT_LE(entry.proxy_component, 1.0);
    EXPECT_NEAR(entry.recall_score,
                entry.prior_accuracy * entry.proxy_component, 1e-12);
  }
}

TEST_F(CoarseRecallTest, TopModelsAndRankOf) {
  CoarseRecall recall(zoo_, matrix_, clustering_);
  auto result = *recall.Recall(*target_, RecallOptions(), nullptr);
  const auto top5 = result.TopModels(5);
  ASSERT_EQ(top5.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(result.RankOf(top5[i]), i);
  }
  // Requesting more than the zoo size returns everything.
  EXPECT_EQ(result.TopModels(1000).size(), zoo_->size());
}

TEST_F(CoarseRecallTest, TopModelsEdgeCases) {
  RecallResult result;
  EXPECT_TRUE(result.TopModels(0).empty());
  EXPECT_TRUE(result.TopModels(5).empty());  // Empty ranking.

  result.ranked.resize(3);
  result.ranked[0].model_index = 7;
  result.ranked[1].model_index = 2;
  result.ranked[2].model_index = 9;
  EXPECT_TRUE(result.TopModels(0).empty());
  EXPECT_EQ(result.TopModels(2), (std::vector<size_t>{7, 2}));
  // k beyond the ranking size returns everything, never out-of-bounds.
  EXPECT_EQ(result.TopModels(3), (std::vector<size_t>{7, 2, 9}));
  EXPECT_EQ(result.TopModels(1000), (std::vector<size_t>{7, 2, 9}));
}

TEST_F(CoarseRecallTest, RankOfAbsentModelReturnsRankedSize) {
  RecallResult result;
  EXPECT_EQ(result.RankOf(0), 0u);  // Empty ranking: everything is absent.

  result.ranked.resize(2);
  result.ranked[0].model_index = 4;
  result.ranked[1].model_index = 1;
  EXPECT_EQ(result.RankOf(4), 0u);
  EXPECT_EQ(result.RankOf(1), 1u);
  // Absent (or out-of-zoo) indices map to the one-past-the-end rank.
  EXPECT_EQ(result.RankOf(0), result.ranked.size());
  EXPECT_EQ(result.RankOf(999), result.ranked.size());
}

TEST_F(CoarseRecallTest, EqualScoresBreakTiesByModelIndex) {
  // The ranking uses a stable sort over index-ordered entries, so models
  // with exactly equal recall scores must appear in ascending model-index
  // order. The no-prior ablation produces real exact ties: every singleton
  // propagated from the same cluster (Eq. 4) shares one proxy component.
  CoarseRecall recall(zoo_, matrix_, clustering_);
  RecallOptions options;
  options.use_accuracy_prior = false;
  auto result = *recall.Recall(*target_, options, nullptr);
  size_t tied_pairs = 0;
  for (size_t i = 1; i < result.ranked.size(); ++i) {
    if (result.ranked[i].recall_score == result.ranked[i - 1].recall_score) {
      ++tied_pairs;
      EXPECT_LT(result.ranked[i - 1].model_index,
                result.ranked[i].model_index)
          << "tied scores at ranks " << i - 1 << "," << i;
    }
  }
  EXPECT_GT(tied_pairs, 0u) << "expected exact ties under the no-prior "
                               "ablation; tie-break check was vacuous";
}

TEST_F(CoarseRecallTest, RepeatedRecallIsDeterministic) {
  CoarseRecall recall(zoo_, matrix_, clustering_);
  auto first = *recall.Recall(*target_, RecallOptions(), nullptr);
  for (int round = 0; round < 3; ++round) {
    auto again = *recall.Recall(*target_, RecallOptions(), nullptr);
    ASSERT_EQ(again.ranked.size(), first.ranked.size());
    for (size_t i = 0; i < first.ranked.size(); ++i) {
      EXPECT_EQ(again.ranked[i].model_index, first.ranked[i].model_index);
      EXPECT_EQ(again.ranked[i].recall_score, first.ranked[i].recall_score);
    }
  }
}

TEST_F(CoarseRecallTest, RecallsBetterThanRandomOnMnli) {
  CoarseRecall recall(zoo_, matrix_, clustering_);
  auto result = *recall.Recall(*target_, RecallOptions(), nullptr);
  const std::vector<double> truth = *TrueFinalAccuracies(
      *zoo_, *target_, *simulator_,
      Hyperparams::DefaultsFor(TaskDomain::kNLP));
  const double recalled = MeanAt(truth, result.TopModels(10));
  Rng rng(5);
  double random = 0.0;
  for (int draw = 0; draw < 30; ++draw) {
    random += MeanAt(truth, rng.SampleWithoutReplacement(zoo_->size(), 10));
  }
  random /= 30.0;
  EXPECT_GT(recalled, random);
}

TEST_F(CoarseRecallTest, DirectScoringAblationComputesAllProxies) {
  // Direct scoring is a clustering, not a flag: with model m in cluster m
  // no cluster has two members, so every model is its own scored
  // representative.
  const ModelClustering singletons = SingletonClustering(zoo_->size());
  CoarseRecall recall(zoo_, matrix_, &singletons);
  EpochBudget budget;
  auto result = *recall.Recall(*target_, RecallOptions(), &budget);
  EXPECT_EQ(result.proxies_computed, zoo_->size());
  EXPECT_DOUBLE_EQ(budget.inference_epochs(), 0.5 * 40.0);
  for (const RecallEntry& entry : result.ranked) {
    EXPECT_FALSE(entry.via_propagation);
  }
}

TEST_F(CoarseRecallTest, ClusteringThatMissesModelsFailsPrecondition) {
  const ModelClustering short_by_one = SingletonClustering(zoo_->size() - 1);
  CoarseRecall recall(zoo_, matrix_, &short_by_one);
  EXPECT_TRUE(recall.Recall(*target_, RecallOptions(), nullptr)
                  .status()
                  .IsFailedPrecondition());
}

TEST_F(CoarseRecallTest, PriorAblationUsesProxyOnly) {
  CoarseRecall recall(zoo_, matrix_, clustering_);
  RecallOptions options;
  options.use_accuracy_prior = false;
  auto result = *recall.Recall(*target_, options, nullptr);
  for (const RecallEntry& entry : result.ranked) {
    EXPECT_DOUBLE_EQ(entry.recall_score, entry.proxy_component);
  }
}

TEST_F(CoarseRecallTest, WorksWithAllProxyScorers) {
  CoarseRecall recall(zoo_, matrix_, clustering_);
  for (const char* proxy : {"leep", "nce", "logme", "knn"}) {
    RecallOptions options;
    options.proxy = proxy;
    auto result = recall.Recall(*target_, options, nullptr);
    EXPECT_TRUE(result.ok()) << proxy;
  }
  RecallOptions bad;
  bad.proxy = "bogus";
  EXPECT_TRUE(recall.Recall(*target_, bad, nullptr)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(CoarseRecallTest, DeterministicAcrossCalls) {
  CoarseRecall recall(zoo_, matrix_, clustering_);
  auto a = *recall.Recall(*target_, RecallOptions(), nullptr);
  auto b = *recall.Recall(*target_, RecallOptions(), nullptr);
  ASSERT_EQ(a.ranked.size(), b.ranked.size());
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(a.ranked[i].model_index, b.ranked[i].model_index);
    EXPECT_DOUBLE_EQ(a.ranked[i].recall_score, b.ranked[i].recall_score);
  }
}

}  // namespace
}  // namespace tps
