#ifndef TPS_SIM_FINETUNE_SIMULATOR_H_
#define TPS_SIM_FINETUNE_SIMULATOR_H_

#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "model/pretrained_model.h"
#include "sim/hyperparams.h"
#include "sim/transfer_oracle.h"
#include "util/metrics.h"
#include "util/statusor.h"

namespace tps {

/// The record of one (simulated) fine-tuning run: validation and test
/// accuracy after each epoch. Epoch t's values live at index t-1.
struct TrainingRun {
  std::string model_name;
  std::string dataset_name;
  Hyperparams hyperparams;
  std::vector<double> val_accuracy;
  std::vector<double> test_accuracy;

  int epochs() const { return static_cast<int>(val_accuracy.size()); }
  /// Test accuracy after the final trained epoch ("final training
  /// performance" in the paper's terms).
  double final_test() const {
    return test_accuracy.empty() ? 0.0 : test_accuracy.back();
  }
};

/// Simulates fine-tuning a pre-trained model on a dataset and reports
/// per-epoch validation/test accuracy.
///
/// Curve family: saturating exponential toward the pair's asymptotic
/// accuracy, with rate scaled by learning rate, an overfitting decline that
/// grows with learning rate (the Fig. 3 vs Fig. 8 contrast), and seeded
/// per-epoch noise. Deterministic in (model, dataset, hyperparams).
class FineTuneSimulator {
 public:
  explicit FineTuneSimulator(TransferOracle oracle = TransferOracle());

  /// Runs `hp.epochs` epochs of fine-tuning. Fails if the model and
  /// dataset task domains differ, hp.epochs < 1 or the learning rate is not
  /// positive.
  StatusOr<TrainingRun> Run(const PretrainedModel& model,
                            const Dataset& dataset,
                            const Hyperparams& hp) const;

  /// Run's writer: the same curve written straight into `val` and `test`
  /// (epoch t at index t-1, each span exactly hp.epochs long), with no
  /// allocation. Run is built on it, so both produce the same bits, and
  /// both count one run in the `sim.*` counters.
  Status Simulate(const PretrainedModel& model, const Dataset& dataset,
                  const Hyperparams& hp, std::span<double> val,
                  std::span<double> test) const;

  const TransferOracle& oracle() const { return oracle_; }

 private:
  TransferOracle oracle_;
  /// `sim.runs` and `sim.epochs_simulated` on MetricsRegistry::Default(),
  /// resolved once here rather than per Run.
  Counter* runs_counter_;
  Counter* epochs_counter_;
};

}  // namespace tps

#endif  // TPS_SIM_FINETUNE_SIMULATOR_H_
