// Cross-module integration tests: the full offline+online pipeline on both
// domains, exercised through the public API exactly as the examples and
// benches use it, with paper-level assertions on costs and quality.

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "bench/lib/bench_util.h"
#include "core/baselines.h"
#include "core/coarse_recall.h"
#include "core/evaluation.h"
#include "core/two_phase.h"
#include "data/registry.h"
#include "model/paper_zoo.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/test_helpers.h"

namespace tps {
namespace {

struct DomainWorld {
  ModelZoo zoo;
  PerformanceMatrix matrix;
  ModelClustering clustering;
};

class IntegrationTest : public testing::Test {
 protected:
  static DomainWorld* Build(TaskDomain domain) {
    ModelZoo zoo = *ModelZoo::Create(domain == TaskDomain::kNLP
                                         ? NlpPaperZooSpecs()
                                         : CvPaperZooSpecs());
    PerformanceMatrix matrix = *PerformanceMatrix::Build(
        zoo, registry_->Benchmarks(domain), *simulator_,
        Hyperparams::DefaultsFor(domain));
    ModelClustering clustering =
        *ClusterModels(matrix, zoo, ModelClusteringOptions());
    return new DomainWorld{std::move(zoo), std::move(matrix),
                           std::move(clustering)};
  }

  static void SetUpTestSuite() {
    registry_ =
        new DatasetRegistry(*DatasetRegistry::CreatePaperInventory());
    simulator_ = new FineTuneSimulator();
    nlp_ = Build(TaskDomain::kNLP);
    cv_ = Build(TaskDomain::kCV);
  }

  static DomainWorld& World(TaskDomain domain) {
    return domain == TaskDomain::kNLP ? *nlp_ : *cv_;
  }

  static DatasetRegistry* registry_;
  static FineTuneSimulator* simulator_;
  static DomainWorld* nlp_;
  static DomainWorld* cv_;
};

DatasetRegistry* IntegrationTest::registry_ = nullptr;
FineTuneSimulator* IntegrationTest::simulator_ = nullptr;
DomainWorld* IntegrationTest::nlp_ = nullptr;
DomainWorld* IntegrationTest::cv_ = nullptr;

TEST_F(IntegrationTest, OfflineArtifactsMatchPaperScale) {
  EXPECT_EQ(nlp_->matrix.num_models(), 40u);
  EXPECT_EQ(nlp_->matrix.num_datasets(), 24u);  // 40 x 24 trains.
  EXPECT_EQ(cv_->matrix.num_models(), 30u);
  EXPECT_EQ(cv_->matrix.num_datasets(), 10u);   // 30 x 10 trains.
  // Table II scale: a handful of non-singleton clusters covering most of
  // the zoo.
  for (DomainWorld* world : {nlp_, cv_}) {
    const auto non_singleton = world->clustering.NonSingletonClusters();
    EXPECT_GE(non_singleton.size(), 5u);
    EXPECT_LE(non_singleton.size(), 9u);
    size_t covered = 0;
    for (int c : non_singleton) {
      covered += world->clustering.clusters.Members(c).size();
    }
    EXPECT_GT(covered, world->zoo.size() / 2);
  }
}

TEST_F(IntegrationTest, RecallBeatsRandomOnEveryTarget) {
  Rng rng(17);
  for (TaskDomain domain : {TaskDomain::kNLP, TaskDomain::kCV}) {
    DomainWorld& world = World(domain);
    CoarseRecall recall(&world.zoo, &world.matrix, &world.clustering);
    const Hyperparams hp = Hyperparams::DefaultsFor(domain);
    for (const Dataset* target : Targets(*registry_, domain)) {
      auto result = *recall.Recall(*target, RecallOptions(), nullptr);
      const auto truth =
          *TrueFinalAccuracies(world.zoo, *target, *simulator_, hp);
      const double recalled = MeanAt(truth, result.TopModels(15));
      double random = 0.0;
      for (int draw = 0; draw < 40; ++draw) {
        random +=
            MeanAt(truth, rng.SampleWithoutReplacement(world.zoo.size(), 15));
      }
      random /= 40.0;
      EXPECT_GT(recalled, random - 0.01) << target->name();
    }
  }
}

TEST_F(IntegrationTest, RecallRegretSmallAtTopFifteen) {
  // Fig. 5 / Table VII: the best (or a within-a-few-points) model is
  // recalled by K = 15 on every target.
  for (TaskDomain domain : {TaskDomain::kNLP, TaskDomain::kCV}) {
    DomainWorld& world = World(domain);
    CoarseRecall recall(&world.zoo, &world.matrix, &world.clustering);
    const Hyperparams hp = Hyperparams::DefaultsFor(domain);
    for (const Dataset* target : Targets(*registry_, domain)) {
      auto result = *recall.Recall(*target, RecallOptions(), nullptr);
      const auto truth =
          *TrueFinalAccuracies(world.zoo, *target, *simulator_, hp);
      double best_recalled = 0.0;
      for (size_t index : result.TopModels(15)) {
        best_recalled = std::max(best_recalled, truth[index]);
      }
      const double best = *std::max_element(truth.begin(), truth.end());
      EXPECT_GE(best_recalled, best - 0.06) << target->name();
    }
  }
}

TEST_F(IntegrationTest, EndToEndSpeedupsMatchPaperBands) {
  // Table VI: 2PH lands at >= 5x over BF and >= 2x over SH, with NLP
  // around 10x / 4x and CV around 6-7x / 3x.
  for (TaskDomain domain : {TaskDomain::kNLP, TaskDomain::kCV}) {
    DomainWorld& world = World(domain);
    const Hyperparams hp = Hyperparams::DefaultsFor(domain);
    std::vector<size_t> all(world.zoo.size());
    std::iota(all.begin(), all.end(), 0);
    TwoPhaseSelector selector(&world.zoo, &world.matrix, &world.clustering,
                              simulator_);
    SuccessiveHalvingSelector sh(&world.zoo, simulator_);
    const double bf_epochs =
        static_cast<double>(world.zoo.size() * hp.epochs);
    for (const Dataset* target : Targets(*registry_, domain)) {
      auto report = *selector.Select(*target, TwoPhaseOptions(), hp);
      EpochBudget sh_budget;
      (void)*sh.Select(all, *target, hp, &sh_budget);
      const double speedup_bf = bf_epochs / report.budget.total_epochs();
      const double speedup_sh =
          sh_budget.total_epochs() / report.budget.total_epochs();
      EXPECT_GT(speedup_bf, 5.0) << target->name();
      EXPECT_LT(speedup_bf, 15.0) << target->name();
      EXPECT_GT(speedup_sh, 2.0) << target->name();
    }
  }
}

TEST_F(IntegrationTest, MultiProxyRecallIsAtLeastAsRobust) {
  // Future-work extension: combining proxies should not collapse recall
  // quality on any target (robustness, not dominance).
  DomainWorld& world = World(TaskDomain::kCV);
  CoarseRecall recall(&world.zoo, &world.matrix, &world.clustering);
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kCV);
  RecallOptions combined;
  combined.proxies = {"leep", "nce", "knn"};
  for (const Dataset* target : Targets(*registry_, TaskDomain::kCV)) {
    auto single = *recall.Recall(*target, RecallOptions(), nullptr);
    auto multi = *recall.Recall(*target, combined, nullptr);
    const auto truth =
        *TrueFinalAccuracies(world.zoo, *target, *simulator_, hp);
    const double single_mean = MeanAt(truth, single.TopModels(10));
    const double multi_mean = MeanAt(truth, multi.TopModels(10));
    EXPECT_GT(multi_mean, single_mean - 0.05) << target->name();
  }
}

TEST_F(IntegrationTest, FirstEpochValidationPredictsFinalOutcome) {
  // The Section IV.A premise (Fig. 3): early validation ranks correlate
  // with final test ranks across the recalled candidates.
  DomainWorld& world = World(TaskDomain::kNLP);
  CoarseRecall recall(&world.zoo, &world.matrix, &world.clustering);
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  for (const Dataset* target : Targets(*registry_, TaskDomain::kNLP)) {
    auto result = *recall.Recall(*target, RecallOptions(), nullptr);
    std::vector<double> first_val, final_test;
    for (size_t index : result.TopModels(10)) {
      auto run = *simulator_->Run(world.zoo.model(index), *target, hp);
      first_val.push_back(run.val_accuracy.front());
      final_test.push_back(run.final_test());
    }
    EXPECT_GT(stats::SpearmanCorrelation(first_val, final_test), 0.4)
        << target->name();
  }
}

TEST_F(IntegrationTest, LearningRateChangeDoesNotBreakSelection) {
  // Appendix A (Fig. 8): the method is robust to the 1e-5 hyperparameter
  // variant.
  DomainWorld& world = World(TaskDomain::kNLP);
  Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  hp.learning_rate = 1e-5;
  TwoPhaseSelector selector(&world.zoo, &world.matrix, &world.clustering,
                            simulator_);
  auto report = *selector.Select(**registry_->Find("mnli"),
                                 TwoPhaseOptions(), hp);
  std::vector<size_t> all(world.zoo.size());
  std::iota(all.begin(), all.end(), 0);
  BruteForceSelector bf(&world.zoo, simulator_);
  auto bf_outcome = *bf.Select(all, **registry_->Find("mnli"), hp, nullptr);
  EXPECT_GE(report.selection.selected_accuracy,
            bf_outcome.selected_accuracy - 0.06);
}

}  // namespace
}  // namespace tps
