#include "core/baselines.h"

#include <numeric>

#include <gtest/gtest.h>

#include "bench/lib/bench_util.h"
#include "core/convergence_trend.h"
#include "core/fine_selection.h"
#include "data/registry.h"
#include "model/paper_zoo.h"

namespace tps {
namespace {

/// Shared NLP world for all selection tests.
class SelectionTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new ModelZoo(*ModelZoo::Create(NlpPaperZooSpecs()));
    registry_ =
        new DatasetRegistry(*DatasetRegistry::CreatePaperInventory());
    simulator_ = new FineTuneSimulator();
    matrix_ = new PerformanceMatrix(*PerformanceMatrix::Build(
        *zoo_, registry_->Benchmarks(TaskDomain::kNLP), *simulator_,
        Hyperparams::DefaultsFor(TaskDomain::kNLP)));
    miner_ = new ConvergenceTrendMiner(matrix_);
    target_ = *registry_->Find("mnli");
  }

  static std::vector<size_t> AllModels() {
    std::vector<size_t> all(zoo_->size());
    std::iota(all.begin(), all.end(), 0);
    return all;
  }

  static ModelZoo* zoo_;
  static DatasetRegistry* registry_;
  static FineTuneSimulator* simulator_;
  static PerformanceMatrix* matrix_;
  static ConvergenceTrendMiner* miner_;
  static const Dataset* target_;
};

ModelZoo* SelectionTest::zoo_ = nullptr;
DatasetRegistry* SelectionTest::registry_ = nullptr;
FineTuneSimulator* SelectionTest::simulator_ = nullptr;
PerformanceMatrix* SelectionTest::matrix_ = nullptr;
ConvergenceTrendMiner* SelectionTest::miner_ = nullptr;
const Dataset* SelectionTest::target_ = nullptr;

TEST_F(SelectionTest, BruteForceCostsCandidatesTimesEpochs) {
  BruteForceSelector bf(zoo_, simulator_);
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  EpochBudget budget;
  auto outcome = bf.Select(AllModels(), *target_, hp, &budget);
  ASSERT_TRUE(outcome.ok());
  EXPECT_DOUBLE_EQ(outcome->training_epochs, 200.0);
  EXPECT_DOUBLE_EQ(budget.training_epochs(), 200.0);
  EXPECT_DOUBLE_EQ(budget.inference_epochs(), 0.0);
}

TEST_F(SelectionTest, BruteForcePicksBestFinalValidation) {
  BruteForceSelector bf(zoo_, simulator_);
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  auto outcome = *bf.Select(AllModels(), *target_, hp, nullptr);
  // Recompute: no model has a higher final-epoch validation accuracy.
  auto winner_run = *simulator_->Run(zoo_->model(outcome.selected_model),
                                     *target_, hp);
  for (size_t m = 0; m < zoo_->size(); ++m) {
    auto run = *simulator_->Run(zoo_->model(m), *target_, hp);
    EXPECT_LE(run.val_accuracy.back(), winner_run.val_accuracy.back());
  }
  EXPECT_DOUBLE_EQ(outcome.selected_accuracy, winner_run.final_test());
}

TEST_F(SelectionTest, SuccessiveHalvingMatchesPaperEpochCounts) {
  SuccessiveHalvingSelector sh(zoo_, simulator_);
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);

  // The paper's Table V: 10 models / 5 epochs -> 19; 40 -> 77.
  const std::vector<size_t> all_models = AllModels();
  const std::vector<size_t> ten(all_models.begin(), all_models.begin() + 10);
  auto ten_outcome = *sh.Select(ten, *target_, hp, nullptr);
  EXPECT_DOUBLE_EQ(ten_outcome.training_epochs, 19.0);
  EXPECT_EQ(ten_outcome.survivors_per_stage,
            (std::vector<size_t>{10, 5, 2, 1, 1}));

  auto all_outcome = *sh.Select(AllModels(), *target_, hp, nullptr);
  EXPECT_DOUBLE_EQ(all_outcome.training_epochs, 77.0);
  EXPECT_EQ(all_outcome.survivors_per_stage,
            (std::vector<size_t>{40, 20, 10, 5, 2}));
}

TEST_F(SelectionTest, SuccessiveHalvingCvEpochCounts) {
  // CV: 4 epochs; 10 models -> 18, 30 -> 55 (paper Table V).
  auto cv_zoo = *ModelZoo::Create(CvPaperZooSpecs());
  auto cv_target = *registry_->Find("beans");
  SuccessiveHalvingSelector sh(&cv_zoo, simulator_);
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kCV);
  std::vector<size_t> ten(10);
  std::iota(ten.begin(), ten.end(), 0);
  EXPECT_DOUBLE_EQ(sh.Select(ten, *cv_target, hp, nullptr)->training_epochs,
                   18.0);
  std::vector<size_t> thirty(30);
  std::iota(thirty.begin(), thirty.end(), 0);
  EXPECT_DOUBLE_EQ(
      sh.Select(thirty, *cv_target, hp, nullptr)->training_epochs, 55.0);
}

TEST_F(SelectionTest, FineSelectionNeverCostsMoreThanHalving) {
  SuccessiveHalvingSelector sh(zoo_, simulator_);
  FineSelectionSelector fs(zoo_, simulator_, miner_);
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  for (const Dataset* target : Targets(*registry_, TaskDomain::kNLP)) {
    auto sh_outcome = *sh.Select(AllModels(), *target, hp, nullptr);
    auto fs_outcome = *fs.Select(AllModels(), *target, hp, nullptr);
    EXPECT_LE(fs_outcome.training_epochs, sh_outcome.training_epochs)
        << target->name();
  }
}

TEST_F(SelectionTest, FineSelectionFiltersAtLeastHalfPerStage) {
  FineSelectionSelector fs(zoo_, simulator_, miner_);
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  auto outcome = *fs.Select(AllModels(), *target_, hp, nullptr);
  const auto& survivors = outcome.survivors_per_stage;
  ASSERT_EQ(survivors.size(), 5u);
  for (size_t t = 1; t < survivors.size(); ++t) {
    EXPECT_LE(survivors[t], std::max<size_t>(1, survivors[t - 1] / 2));
  }
}

TEST_F(SelectionTest, FineSelectionPicksGoodModel) {
  FineSelectionSelector fs(zoo_, simulator_, miner_);
  BruteForceSelector bf(zoo_, simulator_);
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  auto fs_outcome = *fs.Select(AllModels(), *target_, hp, nullptr);
  auto bf_outcome = *bf.Select(AllModels(), *target_, hp, nullptr);
  EXPECT_GE(fs_outcome.selected_accuracy,
            bf_outcome.selected_accuracy - 0.05);
}

class ThresholdSweepTest : public SelectionTest,
                           public testing::WithParamInterface<double> {};

TEST_P(ThresholdSweepTest, LargerThresholdNeverCheapens) {
  // Property (Table IV): the filter threshold trades runtime for safety;
  // runtime at threshold t is >= runtime at threshold 0.
  FineSelectionSelector strict(zoo_, simulator_, miner_);
  FineSelectionOptions options;
  options.threshold = GetParam();
  FineSelectionSelector lenient(zoo_, simulator_, miner_, options);
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  const std::vector<size_t> all = AllModels();
  const std::vector<size_t> ten(all.begin(), all.begin() + 10);
  auto strict_outcome = *strict.Select(ten, *target_, hp, nullptr);
  auto lenient_outcome = *lenient.Select(ten, *target_, hp, nullptr);
  EXPECT_GE(lenient_outcome.training_epochs,
            strict_outcome.training_epochs);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweepTest,
                         testing::Values(0.01, 0.05, 0.10, 0.25));

TEST_F(SelectionTest, SingleCandidateShortCircuits) {
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  for (auto* selector_name : {"bf", "sh", "fs"}) {
    SelectionOutcome outcome;
    if (std::string(selector_name) == "bf") {
      outcome = *BruteForceSelector(zoo_, simulator_)
                     .Select({3}, *target_, hp, nullptr);
    } else if (std::string(selector_name) == "sh") {
      outcome = *SuccessiveHalvingSelector(zoo_, simulator_)
                     .Select({3}, *target_, hp, nullptr);
    } else {
      outcome = *FineSelectionSelector(zoo_, simulator_, miner_)
                     .Select({3}, *target_, hp, nullptr);
    }
    EXPECT_EQ(outcome.selected_model, 3u) << selector_name;
    EXPECT_DOUBLE_EQ(outcome.training_epochs, 5.0) << selector_name;
  }
}

TEST_F(SelectionTest, SelectorsValidateInput) {
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  BruteForceSelector bf(zoo_, simulator_);
  EXPECT_TRUE(bf.Select({}, *target_, hp, nullptr)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(bf.Select({999}, *target_, hp, nullptr)
                  .status()
                  .IsOutOfRange());
  SuccessiveHalvingSelector sh(zoo_, simulator_);
  EXPECT_TRUE(sh.Select({}, *target_, hp, nullptr)
                  .status()
                  .IsInvalidArgument());
  FineSelectionSelector fs(zoo_, simulator_, miner_);
  EXPECT_TRUE(fs.Select({999}, *target_, hp, nullptr)
                  .status()
                  .IsOutOfRange());
}

class EtaSweepTest : public SelectionTest,
                     public testing::WithParamInterface<int> {};

TEST_P(EtaSweepTest, LargerEtaIsCheaperAndFollowsReductionSchedule) {
  SuccessiveHalvingOptions options;
  options.eta = GetParam();
  SuccessiveHalvingSelector sh(zoo_, simulator_, options);
  SuccessiveHalvingSelector classic(zoo_, simulator_);
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  auto outcome = *sh.Select(AllModels(), *target_, hp, nullptr);
  auto classic_outcome = *classic.Select(AllModels(), *target_, hp, nullptr);
  EXPECT_LE(outcome.training_epochs, classic_outcome.training_epochs);
  // The survivor counts follow n -> floor(n/eta).
  const auto& survivors = outcome.survivors_per_stage;
  for (size_t t = 1; t < survivors.size(); ++t) {
    EXPECT_EQ(survivors[t],
              std::max<size_t>(1, survivors[t - 1] /
                                      static_cast<size_t>(options.eta)));
  }
}

INSTANTIATE_TEST_SUITE_P(Etas, EtaSweepTest, testing::Values(2, 3, 4, 8));

TEST_F(SelectionTest, SelectedModelIsAlwaysACandidate) {
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  const std::vector<size_t> candidates = {2, 9, 17, 25, 33};
  FineSelectionSelector fs(zoo_, simulator_, miner_);
  SuccessiveHalvingSelector sh(zoo_, simulator_);
  for (const Dataset* target : Targets(*registry_, TaskDomain::kNLP)) {
    for (const SelectionOutcome& outcome :
         {*fs.Select(candidates, *target, hp, nullptr),
          *sh.Select(candidates, *target, hp, nullptr)}) {
      EXPECT_NE(std::find(candidates.begin(), candidates.end(),
                          outcome.selected_model),
                candidates.end());
    }
  }
}

}  // namespace
}  // namespace tps
