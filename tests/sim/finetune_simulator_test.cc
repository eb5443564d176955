#include "sim/finetune_simulator.h"

#include <vector>

#include <gtest/gtest.h>

#include "sim/epoch_budget.h"
#include "util/stats.h"
#include "util/test_helpers.h"

namespace tps {
namespace {

ModelSpec StrongModelSpec() {
  ModelSpec spec;
  spec.name = "sim/strong-model";
  spec.family = "bert";
  spec.capability = 0.8;
  spec.pretrain_tags = {"english", "books"};
  spec.finetune_tags = {"english", "nli"};
  spec.num_source_labels = 3;
  return spec;
}

DatasetSpec TargetSpec() {
  DatasetSpec spec;
  spec.name = "sim-target";
  spec.num_labels = 3;
  spec.tags = {"english", "nli"};
  spec.num_examples = 30;
  spec.difficulty = 0.4;
  return spec;
}

class FineTuneSimulatorTest : public testing::Test {
 protected:
  FineTuneSimulatorTest()
      : model_(*PretrainedModel::Create(StrongModelSpec())),
        dataset_(*Dataset::Create(TargetSpec())) {}

  FineTuneSimulator simulator_;
  PretrainedModel model_;
  Dataset dataset_;
};

TEST_F(FineTuneSimulatorTest, RunProducesRequestedEpochs) {
  Hyperparams hp;
  hp.epochs = 5;
  auto run = simulator_.Run(model_, dataset_, hp);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->epochs(), 5);
  EXPECT_EQ(run->val_accuracy.size(), 5u);
  EXPECT_EQ(run->test_accuracy.size(), 5u);
  EXPECT_EQ(run->model_name, model_.name());
  EXPECT_EQ(run->dataset_name, dataset_.name());
}

TEST_F(FineTuneSimulatorTest, SimulateWritesRunsCurveIntoSpans) {
  Hyperparams hp;
  hp.epochs = 6;
  const TrainingRun run = *simulator_.Run(model_, dataset_, hp);
  std::vector<double> val(6), test(6);
  ASSERT_TRUE(simulator_.Simulate(model_, dataset_, hp, val, test).ok());
  EXPECT_EQ(val, run.val_accuracy);
  EXPECT_EQ(test, run.test_accuracy);

  std::vector<double> short_val(5);
  EXPECT_TRUE(simulator_.Simulate(model_, dataset_, hp, short_val, test)
                  .IsInvalidArgument());
}

TEST_F(FineTuneSimulatorTest, AccuraciesStayInUnitInterval) {
  Hyperparams hp;
  hp.epochs = 10;
  auto run = *simulator_.Run(model_, dataset_, hp);
  for (double v : run.val_accuracy) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  for (double t : run.test_accuracy) {
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.0);
  }
}

TEST_F(FineTuneSimulatorTest, DeterministicForSameInputs) {
  Hyperparams hp;
  auto a = *simulator_.Run(model_, dataset_, hp);
  auto b = *simulator_.Run(model_, dataset_, hp);
  EXPECT_EQ(a.val_accuracy, b.val_accuracy);
  EXPECT_EQ(a.test_accuracy, b.test_accuracy);
}

TEST_F(FineTuneSimulatorTest, SeedChangesNoiseNotTrend) {
  Hyperparams a;
  a.seed = 1;
  Hyperparams b;
  b.seed = 2;
  auto run_a = *simulator_.Run(model_, dataset_, a);
  auto run_b = *simulator_.Run(model_, dataset_, b);
  EXPECT_NE(run_a.val_accuracy, run_b.val_accuracy);
  // The underlying truth is the same, so final accuracies stay close.
  EXPECT_NEAR(run_a.final_test(), run_b.final_test(), 0.05);
}

TEST_F(FineTuneSimulatorTest, CurvesRiseTowardAsymptote) {
  Hyperparams hp;
  hp.epochs = 8;
  auto run = *simulator_.Run(model_, dataset_, hp);
  // Aligned strong model: epoch 3 should clearly beat epoch 1 and approach
  // the oracle asymptote.
  EXPECT_GT(run.val_accuracy[2], run.val_accuracy[0]);
  const TransferTruth truth =
      simulator_.oracle().Evaluate(model_, dataset_);
  EXPECT_NEAR(BestVal(run), truth.asymptotic_accuracy, 0.08);
}

TEST_F(FineTuneSimulatorTest, LowerLearningRateConvergesSlower) {
  Hyperparams fast;
  fast.learning_rate = 3e-5;
  Hyperparams slow;
  slow.learning_rate = 1e-5;
  auto fast_run = *simulator_.Run(model_, dataset_, fast);
  auto slow_run = *simulator_.Run(model_, dataset_, slow);
  EXPECT_GT(fast_run.val_accuracy[0], slow_run.val_accuracy[0]);
}

TEST_F(FineTuneSimulatorTest, RejectsBadHyperparams) {
  Hyperparams hp;
  hp.epochs = 0;
  EXPECT_TRUE(
      simulator_.Run(model_, dataset_, hp).status().IsInvalidArgument());
  hp.epochs = 3;
  hp.learning_rate = 0.0;
  EXPECT_TRUE(
      simulator_.Run(model_, dataset_, hp).status().IsInvalidArgument());
}

TEST_F(FineTuneSimulatorTest, RejectsDomainMismatch) {
  DatasetSpec cv = TargetSpec();
  cv.name = "sim-cv";
  cv.domain = TaskDomain::kCV;
  auto cv_dataset = *Dataset::Create(cv);
  EXPECT_TRUE(simulator_.Run(model_, cv_dataset, Hyperparams())
                  .status()
                  .IsInvalidArgument());
}

TEST_F(FineTuneSimulatorTest, BestValHelper) {
  TrainingRun run;
  EXPECT_DOUBLE_EQ(BestVal(run), 0.0);
  EXPECT_DOUBLE_EQ(run.final_test(), 0.0);
  run.val_accuracy = {0.3, 0.7, 0.5};
  run.test_accuracy = {0.2, 0.6, 0.55};
  EXPECT_DOUBLE_EQ(BestVal(run), 0.7);
  EXPECT_DOUBLE_EQ(run.final_test(), 0.55);
}

TEST(HyperparamsTest, DomainDefaults) {
  EXPECT_EQ(Hyperparams::DefaultsFor(TaskDomain::kNLP).epochs, 5);
  EXPECT_EQ(Hyperparams::DefaultsFor(TaskDomain::kCV).epochs, 4);
  EXPECT_DOUBLE_EQ(Hyperparams::DefaultsFor(TaskDomain::kNLP).learning_rate,
                   3e-5);
}

TEST(EpochBudgetTest, TracksTrainingAndInference) {
  EpochBudget budget;
  EXPECT_DOUBLE_EQ(budget.total_epochs(), 0.0);
  budget.ChargeTraining(10.0);
  budget.ChargeProxyInference();
  budget.ChargeProxyInference();
  EXPECT_DOUBLE_EQ(budget.training_epochs(), 10.0);
  EXPECT_DOUBLE_EQ(budget.inference_epochs(), 1.0);
  EXPECT_DOUBLE_EQ(budget.total_epochs(), 11.0);
  budget.Reset();
  EXPECT_DOUBLE_EQ(budget.total_epochs(), 0.0);
}

}  // namespace
}  // namespace tps
