#include "core/two_phase.h"

#include <numeric>

#include <gtest/gtest.h>

#include "bench/lib/bench_util.h"
#include "core/baselines.h"
#include "core/evaluation.h"
#include "data/registry.h"
#include "model/paper_zoo.h"

namespace tps {
namespace {

/// End-to-end world shared by the two-phase and integration tests. Builds
/// both NLP and CV offline artifacts once.
class TwoPhaseTest : public testing::Test {
 protected:
  struct World {
    ModelZoo zoo;
    PerformanceMatrix matrix;
    ModelClustering clustering;
  };

  static World* Build(TaskDomain domain) {
    ModelZoo zoo = *ModelZoo::Create(domain == TaskDomain::kNLP
                                         ? NlpPaperZooSpecs()
                                         : CvPaperZooSpecs());
    PerformanceMatrix matrix = *PerformanceMatrix::Build(
        zoo, registry_->Benchmarks(domain), *simulator_,
        Hyperparams::DefaultsFor(domain));
    ModelClustering clustering =
        *ClusterModels(matrix, zoo, ModelClusteringOptions());
    return new World{std::move(zoo), std::move(matrix),
                     std::move(clustering)};
  }

  static void SetUpTestSuite() {
    registry_ =
        new DatasetRegistry(*DatasetRegistry::CreatePaperInventory());
    simulator_ = new FineTuneSimulator();
    nlp_ = Build(TaskDomain::kNLP);
    cv_ = Build(TaskDomain::kCV);
  }

  static DatasetRegistry* registry_;
  static FineTuneSimulator* simulator_;
  static World* nlp_;
  static World* cv_;
};

DatasetRegistry* TwoPhaseTest::registry_ = nullptr;
FineTuneSimulator* TwoPhaseTest::simulator_ = nullptr;
TwoPhaseTest::World* TwoPhaseTest::nlp_ = nullptr;
TwoPhaseTest::World* TwoPhaseTest::cv_ = nullptr;

TEST_F(TwoPhaseTest, ReportAccountsForBothPhases) {
  TwoPhaseSelector selector(&nlp_->zoo, &nlp_->matrix, &nlp_->clustering,
                            simulator_);
  auto report = selector.Select(**registry_->Find("mnli"),
                                TwoPhaseOptions());
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(
      report->budget.inference_epochs(),
      0.5 * static_cast<double>(report->recall.proxies_computed));
  EXPECT_DOUBLE_EQ(report->budget.training_epochs(),
                   report->selection.training_epochs);
  EXPECT_GT(report->budget.total_epochs(), 0.0);
  // Fine-selection starts from exactly the recalled top-10.
  EXPECT_EQ(report->selection.survivors_per_stage.front(), 10u);
}

TEST_F(TwoPhaseTest, SelectedModelComesFromRecalledSet) {
  TwoPhaseSelector selector(&nlp_->zoo, &nlp_->matrix, &nlp_->clustering,
                            simulator_);
  auto report = *selector.Select(**registry_->Find("boolq"),
                                 TwoPhaseOptions());
  const auto top10 = report.recall.TopModels(10);
  EXPECT_NE(std::find(top10.begin(), top10.end(),
                      report.selection.selected_model),
            top10.end());
}

TEST_F(TwoPhaseTest, CheaperThanHalvingWhichIsCheaperThanBruteForce) {
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  std::vector<size_t> all(nlp_->zoo.size());
  std::iota(all.begin(), all.end(), 0);
  TwoPhaseSelector selector(&nlp_->zoo, &nlp_->matrix, &nlp_->clustering,
                            simulator_);
  SuccessiveHalvingSelector sh(&nlp_->zoo, simulator_);
  BruteForceSelector bf(&nlp_->zoo, simulator_);

  for (const Dataset* target : Targets(*registry_, TaskDomain::kNLP)) {
    auto report = *selector.Select(*target, TwoPhaseOptions(), hp);
    EpochBudget sh_budget, bf_budget;
    (void)*sh.Select(all, *target, hp, &sh_budget);
    (void)*bf.Select(all, *target, hp, &bf_budget);
    EXPECT_LT(report.budget.total_epochs(), sh_budget.total_epochs())
        << target->name();
    EXPECT_LT(sh_budget.total_epochs(), bf_budget.total_epochs())
        << target->name();
    // The paper's headline: >= 2x over SH, >= 5x over BF.
    EXPECT_GT(sh_budget.total_epochs() / report.budget.total_epochs(), 2.0)
        << target->name();
    EXPECT_GT(bf_budget.total_epochs() / report.budget.total_epochs(), 5.0)
        << target->name();
  }
}

TEST_F(TwoPhaseTest, AccuracyNearBruteForceOnAllTargets) {
  // The paper's Table VI: 2PH accuracy within ~1 point of brute force.
  // Our reproduction allows a slightly wider band (see EXPERIMENTS.md).
  for (TaskDomain domain : {TaskDomain::kNLP, TaskDomain::kCV}) {
    World* world = domain == TaskDomain::kNLP ? nlp_ : cv_;
    const Hyperparams hp = Hyperparams::DefaultsFor(domain);
    std::vector<size_t> all(world->zoo.size());
    std::iota(all.begin(), all.end(), 0);
    TwoPhaseSelector selector(&world->zoo, &world->matrix,
                              &world->clustering, simulator_);
    BruteForceSelector bf(&world->zoo, simulator_);
    for (const Dataset* target : Targets(*registry_, domain)) {
      auto report = *selector.Select(*target, TwoPhaseOptions(), hp);
      auto bf_outcome = *bf.Select(all, *target, hp, nullptr);
      EXPECT_GE(report.selection.selected_accuracy,
                bf_outcome.selected_accuracy - 0.06)
          << target->name();
    }
  }
}

TEST_F(TwoPhaseTest, CvUsesFourEpochDefaults) {
  TwoPhaseSelector selector(&cv_->zoo, &cv_->matrix, &cv_->clustering,
                            simulator_);
  auto report = *selector.Select(**registry_->Find("beans"),
                                 TwoPhaseOptions());
  EXPECT_EQ(report.selection.survivors_per_stage.size(), 4u);
}

TEST_F(TwoPhaseTest, RecallSizeOptionRespected) {
  TwoPhaseSelector selector(&nlp_->zoo, &nlp_->matrix, &nlp_->clustering,
                            simulator_);
  TwoPhaseOptions options;
  options.recall.top_k_models = 4;
  auto report = *selector.Select(**registry_->Find("mnli"), options);
  EXPECT_EQ(report.selection.survivors_per_stage.front(), 4u);
}

TEST_F(TwoPhaseTest, EvaluationHelpers) {
  const std::vector<double> accs = {0.3, 0.9, 0.5, 0.7};
  EXPECT_EQ(BestModel(accs), 1u);
  EXPECT_EQ(TopKByAccuracy(accs, 2), (std::vector<size_t>{1, 3}));
  EXPECT_EQ(TopKByAccuracy(accs, 10).size(), 4u);
  EXPECT_DOUBLE_EQ(MeanAt(accs, {0, 2}), 0.4);
  EXPECT_DOUBLE_EQ(MeanAt(accs, {}), 0.0);
}

}  // namespace
}  // namespace tps
