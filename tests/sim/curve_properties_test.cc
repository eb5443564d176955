// Parameterized property sweep over the fine-tune simulator's curve
// family: for every (difficulty, capability, learning-rate) combination
// the curves must respect the invariants the selection algorithms rely on.

#include <gtest/gtest.h>

#include "sim/finetune_simulator.h"
#include "util/stats.h"
#include "util/test_helpers.h"

namespace tps {
namespace {

struct CurveCase {
  double difficulty;
  double capability;
  double learning_rate;
};

std::string CaseName(const testing::TestParamInfo<CurveCase>& info) {
  const CurveCase& c = info.param;
  return std::string("d") + std::to_string(static_cast<int>(c.difficulty * 100)) + "_c" +
         std::to_string(static_cast<int>(c.capability * 100)) + "_lr" +
         std::to_string(static_cast<int>(c.learning_rate * 1e6));
}

class CurvePropertiesTest : public testing::TestWithParam<CurveCase> {};

TEST_P(CurvePropertiesTest, CurveInvariantsHold) {
  const CurveCase& c = GetParam();

  ModelSpec model_spec;
  model_spec.name = std::string("curveprop/model-") + CaseName({GetParam(), 0});
  model_spec.family = "bert";
  model_spec.capability = c.capability;
  model_spec.pretrain_tags = {"english", "books"};
  model_spec.finetune_tags = {"english", "nli"};
  model_spec.num_source_labels = 3;
  auto model = *PretrainedModel::Create(model_spec);

  DatasetSpec dataset_spec;
  dataset_spec.name = std::string("curveprop/ds-") + CaseName({GetParam(), 0});
  dataset_spec.num_labels = 3;
  dataset_spec.difficulty = c.difficulty;
  dataset_spec.tags = {"english", "nli"};
  dataset_spec.num_examples = 30;
  auto dataset = *Dataset::Create(dataset_spec);

  FineTuneSimulator simulator;
  Hyperparams hp;
  hp.learning_rate = c.learning_rate;
  hp.epochs = 12;
  auto run = *simulator.Run(model, dataset, hp);

  // 1. All accuracies live in [0, 1].
  for (double v : run.val_accuracy) {
    ASSERT_GE(v, 0.0);
    ASSERT_LE(v, 1.0);
  }
  // 2. Validation starts above half the chance floor (training never makes
  //    a model much worse than guessing) ...
  const double chance = dataset.spec().EffectiveChance();
  EXPECT_GT(run.val_accuracy.front(), 0.25 * chance);
  // 3. ... and the best validation beats the first epoch (learning
  //    happens) for all but pathological settings.
  EXPECT_GE(BestVal(run), run.val_accuracy.front() - 0.02);
  // 4. The curve approaches the oracle's asymptote from below: the best
  //    value does not exceed asymptote + noise margin.
  const TransferTruth truth = simulator.oracle().Evaluate(model, dataset);
  EXPECT_LE(BestVal(run), truth.asymptotic_accuracy + 0.08);
  // 5. Test tracks validation: final test within a small gap of late-epoch
  //    validation.
  EXPECT_NEAR(run.final_test(), run.val_accuracy.back(), 0.08);
  // 6. Determinism.
  auto again = *simulator.Run(model, dataset, hp);
  EXPECT_EQ(run.val_accuracy, again.val_accuracy);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CurvePropertiesTest,
    testing::Values(CurveCase{0.1, 0.3, 3e-5}, CurveCase{0.1, 0.8, 3e-5},
                    CurveCase{0.5, 0.3, 3e-5}, CurveCase{0.5, 0.6, 3e-5},
                    CurveCase{0.5, 0.9, 3e-5}, CurveCase{0.9, 0.5, 3e-5},
                    CurveCase{0.5, 0.6, 1e-5}, CurveCase{0.5, 0.6, 1e-4},
                    CurveCase{0.2, 0.7, 1e-5}, CurveCase{0.8, 0.8, 1e-4}),
    CaseName);

}  // namespace
}  // namespace tps
